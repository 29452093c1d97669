// Command hopekeys builds a HOPE dictionary from a sample file and encodes
// keys from stdin, one per line, writing the order-preserving compressed
// form in hex. It demonstrates the standalone-library integration path of
// paper Section 5.
//
// Usage:
//
//	hopekeys -scheme double-char -samples keys.txt < keys.txt
//	hopekeys -scheme 3-grams -dict 65536 -samples keys.txt -stats < more.txt
package main

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
)

var schemeNames = map[string]core.Scheme{
	"single-char":  core.SingleChar,
	"double-char":  core.DoubleChar,
	"alm":          core.ALM,
	"3-grams":      core.ThreeGrams,
	"4-grams":      core.FourGrams,
	"alm-improved": core.ALMImproved,
}

func main() {
	scheme := flag.String("scheme", "double-char", "compression scheme: single-char, double-char, alm, 3-grams, 4-grams, alm-improved")
	samplePath := flag.String("samples", "", "file of sample keys, one per line (required)")
	dictLimit := flag.Int("dict", 65536, "dictionary entry limit for tunable schemes")
	stats := flag.Bool("stats", false, "print dictionary statistics to stderr")
	decodeMode := flag.Bool("decode", false, "read hex/bits lines (the encode output format) and print the decoded keys")
	flag.Parse()

	s, ok := schemeNames[strings.ToLower(*scheme)]
	if !ok {
		fatal(fmt.Errorf("unknown scheme %q", *scheme))
	}
	if *samplePath == "" {
		fatal(fmt.Errorf("-samples is required"))
	}
	samples, err := readLines(*samplePath)
	if err != nil {
		fatal(err)
	}
	enc, err := core.Build(s, samples, core.Options{DictLimit: *dictLimit})
	if err != nil {
		fatal(err)
	}
	if *stats {
		st := enc.Stats()
		fmt.Fprintf(os.Stderr, "scheme=%v entries=%d dict_mem=%dB build=%v (select=%v assign=%v dict=%v)\n",
			s, enc.NumEntries(), enc.MemoryUsage(), st.Total(), st.SymbolSelect, st.CodeAssign, st.DictBuild)
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	if *decodeMode {
		dec, err := core.NewTableDecoder(enc)
		if err != nil {
			fatal(err)
		}
		var key []byte
		for in.Scan() {
			// The decoder reads the padded bytes; the bit count after the
			// slash is not needed.
			hexStr, _, _ := strings.Cut(in.Text(), "/")
			raw, err := hex.DecodeString(hexStr)
			if err != nil {
				fatal(fmt.Errorf("bad encoded line %q: %w", in.Text(), err))
			}
			if key, err = dec.AppendDecode(key[:0], raw); err != nil {
				fatal(fmt.Errorf("bad encoded line %q: %w", in.Text(), err))
			}
			fmt.Fprintf(out, "%s\n", key)
		}
		if err := in.Err(); err != nil {
			fatal(err)
		}
		return
	}
	var rawBytes, encBytes int
	var buf []byte
	for in.Scan() {
		key := in.Bytes()
		b, bits := enc.EncodeBits(buf, key)
		fmt.Fprintf(out, "%x/%d\n", b, bits)
		rawBytes += len(key)
		encBytes += len(b)
		buf = b[:0]
	}
	if err := in.Err(); err != nil {
		fatal(err)
	}
	if *stats && encBytes > 0 {
		fmt.Fprintf(os.Stderr, "compressed %d -> %d bytes (CPR %.3f)\n",
			rawBytes, encBytes, float64(rawBytes)/float64(encBytes))
	}
}

func readLines(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out [][]byte
	for sc.Scan() {
		out = append(out, append([]byte(nil), sc.Bytes()...))
	}
	return out, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hopekeys:", err)
	os.Exit(1)
}
