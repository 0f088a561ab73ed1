// Command datagen materializes any of the benchmark datasets to CSV files,
// one per table, for inspection or for loading into an external system.
//
// Usage:
//
//	datagen -bench tpch|imdb|ott|udf-imdb|udf-tpch [-out DIR] [-scale tiny|small|medium] [-seed N]
//
// -scale and -seed are bound by harness.BindFlags, as in the other binaries
// (README: "Flags shared by the binaries").
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"monsoon/internal/bench/imdb"
	"monsoon/internal/bench/ott"
	"monsoon/internal/bench/tpch"
	"monsoon/internal/bench/udf"
	"monsoon/internal/harness"
	"monsoon/internal/table"
)

// options are datagen's flags.
type options struct {
	shared     *harness.Flags
	bench, out string
}

// bindFlags registers datagen's flags on fs.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{shared: harness.BindFlags(fs, "tiny", 0)}
	fs.StringVar(&o.bench, "bench", "tpch", "dataset: tpch, imdb, ott, udf-imdb, or udf-tpch")
	fs.StringVar(&o.out, "out", "data", "output directory")
	return o
}

func main() {
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	sc, err := o.shared.Scale()
	if err != nil {
		fail("%v", err)
	}

	var cat *table.Catalog
	switch o.bench {
	case "tpch":
		cat = tpch.Generate(tpch.Config{ScaleFactor: sc.TPCHSF, Seed: sc.Seed})
	case "imdb":
		cat = imdb.Generate(imdb.Config{Titles: sc.IMDBTitles, Bootstrap: sc.IMDBBootstrap, Seed: sc.Seed})
	case "ott":
		cat = ott.Generate(ott.Config{ScaleFactor: sc.OTTSF, Seed: sc.Seed})
	case "udf-imdb":
		cat = udf.Generate(udf.Config{Titles: sc.UDFTitles, ScaleFactor: sc.UDFSF, Seed: sc.Seed}).IMDBCat
	case "udf-tpch":
		cat = udf.Generate(udf.Config{Titles: sc.UDFTitles, ScaleFactor: sc.UDFSF, Seed: sc.Seed}).TPCHCat
	default:
		fail("unknown dataset %q", o.bench)
	}

	dir := filepath.Join(o.out, o.bench)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail("mkdir: %v", err)
	}
	names := cat.Names()
	sort.Strings(names)
	total := 0
	for _, name := range names {
		rel := cat.MustGet(name)
		path := filepath.Join(dir, name+".csv")
		if err := writeCSV(path, rel); err != nil {
			fail("write %s: %v", path, err)
		}
		fmt.Printf("%-20s %8d rows -> %s\n", name, rel.Count(), path)
		total += rel.Count()
	}
	fmt.Printf("total: %d rows in %d tables\n", total, len(names))
}

func writeCSV(path string, rel *table.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header := make([]string, len(rel.Schema.Cols))
	for i, c := range rel.Schema.Cols {
		header[i] = c.Name
	}
	if err := w.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for _, row := range rel.Rows {
		for i, v := range row {
			rec[i] = v.String()
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
