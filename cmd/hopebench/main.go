// Command hopebench regenerates the tables and figures of the HOPE paper's
// evaluation. Each -fig value corresponds to one paper artifact; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded runs.
//
// Usage:
//
//	hopebench -fig 8 -dataset email -keys 100000
//	hopebench -fig 12 -dataset url -quick
//	hopebench -fig all
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	hope "repro"
	"repro/internal/bench"
	"repro/internal/datagen"
)

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: table1, 8, 9, 10, 11, 12, 13, 14, 15, 16, ablation, encode, tree, all")
	dataset := flag.String("dataset", "email", "dataset: email, wiki, url, all")
	keys := flag.Int("keys", 100000, "number of keys (paper: 14-25M)")
	ops := flag.Int("ops", 100000, "number of workload operations (paper: 10M)")
	sample := flag.Float64("sample", 0.01, "HOPE build sample fraction (paper: 1%)")
	seed := flag.Int64("seed", 42, "dataset seed")
	quick := flag.Bool("quick", false, "shrink dictionary limits for a fast pass")
	jsonOut := flag.String("json", "", "also write results as JSON to this file (fig=encode and tree)")
	flag.Parse()
	if *jsonOut != "" && *fig != "encode" && *fig != "tree" {
		fatal(fmt.Errorf("-json only applies to -fig encode and tree"))
	}

	var datasets []datagen.Kind
	if *dataset == "all" {
		datasets = datagen.Kinds
	} else {
		k, err := datagen.ParseKind(*dataset)
		if err != nil {
			fatal(err)
		}
		datasets = []datagen.Kind{k}
	}
	// Bench rows accumulate across datasets so -dataset all writes one
	// JSON file with every dataset's rows instead of overwriting it per
	// dataset.
	var encodeRows []bench.EncodeBenchRow
	var treeRows []bench.TreeBenchRow
	for _, ds := range datasets {
		cfg := bench.Config{
			Dataset: ds, NumKeys: *keys, NumOps: *ops,
			SampleFrac: *sample, Seed: *seed, Quick: *quick,
		}
		if err := run(*fig, cfg, &encodeRows, &treeRows); err != nil {
			fatal(err)
		}
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		var werr error
		if *fig == "tree" {
			werr = bench.WriteTreeBenchJSON(f, treeRows)
		} else {
			werr = bench.WriteEncodeBenchJSON(f, encodeRows)
		}
		if werr != nil {
			fatal(werr)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hopebench:", err)
	os.Exit(1)
}

func run(fig string, cfg bench.Config, encodeRows *[]bench.EncodeBenchRow, treeRows *[]bench.TreeBenchRow) error {
	switch fig {
	case "all":
		for _, f := range []string{"table1", "8", "9", "10", "11", "12", "13", "14", "15", "16", "ablation", "tree"} {
			if err := run(f, cfg, encodeRows, treeRows); err != nil {
				return err
			}
		}
		return nil
	case "table1":
		return table1()
	case "8":
		return fig8(cfg)
	case "9":
		return fig9(cfg)
	case "10":
		return fig10(cfg)
	case "11":
		return fig11(cfg)
	case "12":
		return fig12(cfg)
	case "13":
		return fig13(cfg)
	case "14":
		return fig14(cfg)
	case "15":
		return fig15(cfg)
	case "16":
		return fig16(cfg)
	case "ablation":
		return ablations(cfg)
	case "encode":
		return encodeBench(cfg, encodeRows)
	case "tree":
		return treeBench(cfg, treeRows)
	}
	return fmt.Errorf("unknown figure %q", fig)
}

func treeBench(cfg bench.Config, treeRows *[]bench.TreeBenchRow) error {
	rows, err := bench.RunFigTree(cfg, hope.Backends)
	if err != nil {
		return err
	}
	*treeRows = append(*treeRows, rows...)
	var out [][]string
	for _, r := range rows {
		cpr := "-"
		if r.CPR > 0 {
			cpr = bench.F(r.CPR)
		}
		out = append(out, []string{r.Backend, r.Config,
			bench.F3(r.LoadSec), bench.F(r.PointNs), bench.F(r.ScanNs),
			bench.F(r.BytesPerKey), bench.F3(r.TreeMB), bench.F3(r.DictMB), cpr})
	}
	bench.Table(os.Stdout, fmt.Sprintf("End-to-end trees (%s): hope.Index across backends x schemes", cfg.Dataset),
		[]string{"Backend", "Config", "Load (s)", "Point (ns)", "Scan (ns)",
			"Bytes/key", "Tree (MB)", "Dict (MB)", "CPR"}, out)
	return nil
}

func encodeBench(cfg bench.Config, encodeRows *[]bench.EncodeBenchRow) error {
	rows, err := bench.RunEncodeBench(cfg)
	if err != nil {
		return err
	}
	*encodeRows = append(*encodeRows, rows...)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Scheme, strconv.Itoa(r.DictEntries),
			bench.F(r.SerialNsKey), bench.F(r.SerialNsChar),
			bench.F(r.BulkNsKey), bench.F(r.BulkSpeedup), strconv.Itoa(r.GOMAXPROCS),
			bench.F(r.CPR)})
	}
	bench.Table(os.Stdout, fmt.Sprintf("Encode kernels (%s): serial vs parallel bulk", cfg.Dataset),
		[]string{"Scheme", "Entries", "Serial (ns/key)", "Serial (ns/char)",
			"Bulk (ns/key)", "Bulk speedup", "GOMAXPROCS", "CPR"}, out)
	return nil
}

func table1() error {
	var rows [][]string
	for _, r := range bench.Table1() {
		rows = append(rows, []string{r.Scheme, r.Category, r.SymbolSelector, r.CodeAssigner, r.Dictionary})
	}
	bench.Table(os.Stdout, "Table 1: module configuration",
		[]string{"Scheme", "Category", "Symbol Selector", "Code Assigner", "Dictionary"}, rows)
	return nil
}

func fig8(cfg bench.Config) error {
	rows, err := bench.RunFig8(cfg, bench.Fig8Sizes(cfg.Quick))
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		req := "fixed"
		if r.Requested > 0 {
			req = strconv.Itoa(r.Requested)
		}
		out = append(out, []string{r.Scheme.String(), req, strconv.Itoa(r.Entries),
			bench.F(r.CPR), bench.F(r.LatNsChar), bench.F(r.DictMemKB)})
	}
	bench.Table(os.Stdout, fmt.Sprintf("Figure 8 (%s): compression microbenchmarks", cfg.Dataset),
		[]string{"Scheme", "Requested", "Entries", "CPR", "Latency (ns/char)", "Dict mem (KB)"}, out)
	return nil
}

func fig9(cfg bench.Config) error {
	rows, err := bench.RunFig9(cfg)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Label,
			bench.F3(r.Stats.SymbolSelect.Seconds()),
			bench.F3(r.Stats.CodeAssign.Seconds()),
			bench.F3(r.Stats.DictBuild.Seconds()),
			bench.F3(r.Stats.Total().Seconds()),
			strconv.Itoa(r.Stats.Entries)})
	}
	bench.Table(os.Stdout, fmt.Sprintf("Figure 9 (%s): dictionary build time breakdown", cfg.Dataset),
		[]string{"Scheme", "Symbol select (s)", "Code assign (s)", "Dict build (s)", "Total (s)", "Entries"}, out)
	return nil
}

func fig10(cfg bench.Config) error {
	rows, err := bench.RunFig10(cfg)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		model := "-"
		if r.ModelPredictedReduction != 0 {
			model = bench.Pct(r.ModelPredictedReduction)
		}
		out = append(out, []string{r.Config, bench.F(r.PointNs), bench.F(r.RangeNs),
			bench.F3(r.BuildSec), bench.F(r.TrieHeight), bench.F3(r.MemoryMB), model})
	}
	bench.Table(os.Stdout, fmt.Sprintf("Figure 10 (%s): SuRF under YCSB", cfg.Dataset),
		[]string{"Config", "Point (ns)", "Range (ns)", "Build (s)", "Trie height", "Memory (MB)", "Sec.5 model"}, out)
	return nil
}

func fig11(cfg bench.Config) error {
	rows, err := bench.RunFig11(cfg)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Config, bench.Pct(r.FPRBase), bench.Pct(r.FPRReal8)})
	}
	bench.Table(os.Stdout, fmt.Sprintf("Figure 11 (%s): SuRF false positive rate", cfg.Dataset),
		[]string{"Config", "SuRF (Base)", "SuRF-Real8"}, out)
	return nil
}

func fig12(cfg bench.Config) error {
	rows, err := bench.RunFig12(cfg, bench.IndexNames)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Index, r.Config, bench.F(r.PointNs),
			bench.F3(r.TreeMB), bench.F3(r.DictMB), bench.F3(r.MemoryMB), bench.F3(r.LoadSec)})
	}
	bench.Table(os.Stdout, fmt.Sprintf("Figure 12 (%s): YCSB-C point queries", cfg.Dataset),
		[]string{"Index", "Config", "Point (ns)", "Tree (MB)", "Dict (MB)", "Total (MB)", "Load (s)"}, out)
	return nil
}

func fig13(cfg bench.Config) error {
	rows, err := bench.RunFig13(cfg, []float64{0.00001, 0.0001, 0.001, 0.01, 0.1, 1.0})
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Scheme.String(), fmt.Sprintf("%g", r.Frac),
			strconv.Itoa(r.Samples), bench.F(r.CPR)})
	}
	bench.Table(os.Stdout, fmt.Sprintf("Figure 13 / Appendix A (%s): sample size sensitivity", cfg.Dataset),
		[]string{"Scheme", "Fraction", "Samples", "CPR"}, out)
	return nil
}

func fig14(cfg bench.Config) error {
	rows, err := bench.RunFig14(cfg, []int{1, 2, 32})
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Scheme.String(), strconv.Itoa(r.BatchSize), bench.F(r.LatNsChar)})
	}
	bench.Table(os.Stdout, fmt.Sprintf("Figure 14 / Appendix B (%s): batch encoding", cfg.Dataset),
		[]string{"Scheme", "Batch size", "Latency (ns/char)"}, out)
	return nil
}

func fig15(cfg bench.Config) error {
	rows, err := bench.RunFig15(cfg)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Scheme.String(),
			fmt.Sprintf("Dict-%s, Email-%s", r.Dict, r.Eval), bench.F(r.CPR)})
	}
	bench.Table(os.Stdout, "Figure 15 / Appendix C: key distribution changes (email)",
		[]string{"Scheme", "Configuration", "CPR"}, out)
	return nil
}

func fig16(cfg bench.Config) error {
	rows, err := bench.RunFig16(cfg, bench.IndexNames)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Index, r.Config, bench.F(r.RangeNs), bench.F(r.InsertNs)})
	}
	bench.Table(os.Stdout, fmt.Sprintf("Figure 16 / Appendix D (%s): YCSB-E ranges and inserts", cfg.Dataset),
		[]string{"Index", "Config", "Range (ns)", "Insert (ns)"}, out)
	return nil
}

func ablations(cfg bench.Config) error {
	w, err := bench.RunAblationWeighting(cfg)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range w {
		out = append(out, []string{r.Scheme.String(), bench.F(r.CPRWeighted), bench.F(r.CPRUnweighted)})
	}
	bench.Table(os.Stdout, fmt.Sprintf("Ablation (%s): length-weighted probabilities", cfg.Dataset),
		[]string{"Scheme", "CPR weighted", "CPR unweighted"}, out)

	d, err := bench.RunAblationDictStructure(cfg)
	if err != nil {
		return err
	}
	out = nil
	for _, r := range d {
		out = append(out, []string{r.Scheme.String(), bench.F(r.SpecializedNs),
			bench.F(r.BinarySearchNs), bench.F(r.SpecializedMemKB), bench.F(r.BinarySearchKB)})
	}
	bench.Table(os.Stdout, fmt.Sprintf("Ablation (%s): dictionary structure vs binary search", cfg.Dataset),
		[]string{"Scheme", "Table-1 struct (ns/char)", "Binary search (ns/char)", "Struct mem (KB)", "BS mem (KB)"}, out)

	c, err := bench.RunAblationCoder(cfg)
	if err != nil {
		return err
	}
	out = nil
	for _, r := range c {
		out = append(out, []string{r.Scheme.String(), strconv.Itoa(r.Entries),
			bench.F3(r.GWAssignSec), bench.F3(r.HTAssignSec), bench.F(r.CPRGW), bench.F(r.CPRHT)})
	}
	bench.Table(os.Stdout, fmt.Sprintf("Ablation (%s): Garsia-Wachs vs O(n²) Hu-Tucker", cfg.Dataset),
		[]string{"Scheme", "Entries", "GW assign (s)", "HT assign (s)", "CPR GW", "CPR HT"}, out)

	re, err := bench.RunAblationRangeEncoding(cfg)
	if err != nil {
		return err
	}
	out = nil
	for _, r := range re {
		out = append(out, []string{r.Scheme.String(), bench.F(r.CPRHT), bench.F(r.CPRRange)})
	}
	bench.Table(os.Stdout, fmt.Sprintf("Ablation (%s): Hu-Tucker vs range encoding", cfg.Dataset),
		[]string{"Scheme", "CPR Hu-Tucker", "CPR range encoding"}, out)
	return nil
}
