module monsoon/benchmark

go 1.22

require monsoon v0.0.0

replace monsoon => ../
