// Package core implements the HOPE framework (paper Section 4): the
// two-phase architecture whose Build phase runs a Symbol Selector and a
// Code Assigner over sampled keys to produce a Dictionary, and whose
// Encode phase compresses arbitrary keys through repeated dictionary
// lookups while preserving lexicographic order.
//
// The six published compression schemes are provided; their module
// configuration follows the paper's Table 1:
//
//	Scheme        Symbol Selector  Code Assigner  Dictionary
//	Single-Char   Single-Char      Hu-Tucker      array
//	Double-Char   Double-Char      Hu-Tucker      array
//	ALM           ALM              fixed-length   ART-based
//	3-Grams       3-Grams          Hu-Tucker      bitmap-trie
//	4-Grams       4-Grams          Hu-Tucker      bitmap-trie
//	ALM-Improved  ALM-Improved     Hu-Tucker      ART-based
package core

import (
	"fmt"
	"time"

	"repro/internal/dict"
	"repro/internal/hutucker"
	"repro/internal/symbolselect"
)

// Scheme identifies one of HOPE's compression schemes.
type Scheme int

const (
	// SingleChar exploits zeroth-order byte entropy (FIVC).
	SingleChar Scheme = iota
	// DoubleChar exploits first-order entropy over byte pairs (FIVC).
	DoubleChar
	// ALM is Antoshenkov's variable-interval fixed-code scheme (VIFC).
	ALM
	// ThreeGrams selects frequent 3-byte patterns (VIVC).
	ThreeGrams
	// FourGrams selects frequent 4-byte patterns (VIVC).
	FourGrams
	// ALMImproved is ALM with suffix-only statistics and Hu-Tucker codes (VIVC).
	ALMImproved
)

// Schemes lists all supported schemes in the paper's presentation order.
var Schemes = []Scheme{SingleChar, DoubleChar, ALM, ThreeGrams, FourGrams, ALMImproved}

func (s Scheme) String() string {
	switch s {
	case SingleChar:
		return "Single-Char"
	case DoubleChar:
		return "Double-Char"
	case ALM:
		return "ALM"
	case ThreeGrams:
		return "3-Grams"
	case FourGrams:
		return "4-Grams"
	case ALMImproved:
		return "ALM-Improved"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Category returns the scheme's position in the string axis model's
// taxonomy (paper Figure 3).
func (s Scheme) Category() string {
	switch s {
	case SingleChar, DoubleChar:
		return "FIVC"
	case ALM:
		return "VIFC"
	default:
		return "VIVC"
	}
}

// FixedDictSize reports whether the scheme's dictionary size is fixed
// (Single-Char: 256, Double-Char: 65,792) rather than tunable.
func (s Scheme) FixedDictSize() bool { return s == SingleChar || s == DoubleChar }

// Options tune the build phase. The zero value gives the paper's defaults.
type Options struct {
	// DictLimit caps the number of dictionary entries for the
	// variable-interval schemes (default 65,536, the paper's 64K point).
	DictLimit int
	// MaxPatternLen caps ALM candidate patterns (default 64 bytes).
	MaxPatternLen int
	// UnweightedProbabilities disables the paper's symbol-length weighting
	// of interval probabilities for variable-interval schemes; used by the
	// weighting ablation benchmark.
	UnweightedProbabilities bool
	// CodeAlgorithm selects the optimal alphabetic coder (default
	// Garsia-Wachs; hutucker.HuTucker runs the paper's O(n²) algorithm).
	CodeAlgorithm hutucker.Algorithm
	// UseRangeEncoding swaps Hu-Tucker for the paper's cited alternative
	// Code Assigner, range encoding (Section 4.2). It is order-preserving
	// but spends extra bits to land codes on dyadic range boundaries; the
	// coder ablation quantifies the gap.
	UseRangeEncoding bool
	// DoubleCharAlphabet shrinks the Double-Char alphabet (default 256;
	// tests use small alphabets to keep fixtures fast). Keys must then
	// stay within the alphabet.
	DoubleCharAlphabet int
	// ForceBinarySearchDict replaces the scheme's dictionary structure
	// with the plain binary-search dictionary; used by the
	// dictionary-structure ablation benchmark.
	ForceBinarySearchDict bool
}

func (o *Options) fill() {
	if o.DictLimit == 0 {
		o.DictLimit = 1 << 16
	}
	if o.MaxPatternLen == 0 {
		o.MaxPatternLen = symbolselect.DefaultMaxPatternLen
	}
	if o.DoubleCharAlphabet == 0 {
		o.DoubleCharAlphabet = 256
	}
}

// BuildStats records the build-phase time breakdown reported in the
// paper's Figure 9.
type BuildStats struct {
	SymbolSelect time.Duration
	CodeAssign   time.Duration
	DictBuild    time.Duration
	Entries      int
}

// Total returns the end-to-end build time.
func (s BuildStats) Total() time.Duration {
	return s.SymbolSelect + s.CodeAssign + s.DictBuild
}

// Encoder compresses keys order-preservingly. It is not safe for
// concurrent use (the paper's encoder is single-threaded; wrap one Encoder
// per goroutine around a shared dictionary if needed — Dictionary lookups
// themselves are read-only).
type Encoder struct {
	scheme  Scheme
	dict    dict.Dictionary
	entries []dict.Entry
	stats   BuildStats

	// lookAhead is the number of remaining shared-prefix bytes that make a
	// dictionary lookup independent of the bytes that follow; 0 disables
	// batch encoding (ALM schemes, whose symbols have arbitrary length).
	lookAhead int

	// structOpt retains the options that shape the dictionary STRUCTURE
	// (not the symbol selection): what Reassemble must be handed to
	// rebuild an encode-identical lookup structure from the entries alone.
	structOpt Options

	app appender // reusable encode state
}

// Build runs HOPE's build phase: sample statistics, interval division,
// code assignment, dictionary construction.
func Build(scheme Scheme, samples [][]byte, opt Options) (*Encoder, error) {
	opt.fill()
	e := &Encoder{scheme: scheme, structOpt: structuralOptions(opt)}

	t0 := time.Now()
	var intervals []symbolselect.Interval
	var err error
	weight := !opt.UnweightedProbabilities
	switch scheme {
	case SingleChar:
		intervals = symbolselect.SingleChar(samples)
		e.lookAhead = 1
	case DoubleChar:
		intervals = symbolselect.DoubleChar(samples, opt.DoubleCharAlphabet)
		e.lookAhead = 2
	case ThreeGrams:
		intervals, err = symbolselect.NGrams(samples, 3, opt.DictLimit, weight)
		e.lookAhead = 3
	case FourGrams:
		intervals, err = symbolselect.NGrams(samples, 4, opt.DictLimit, weight)
		e.lookAhead = 4
	case ALM:
		intervals, err = symbolselect.ALM(samples, opt.DictLimit, opt.MaxPatternLen, weight)
	case ALMImproved:
		intervals, err = symbolselect.ALMImproved(samples, opt.DictLimit, opt.MaxPatternLen, weight)
	default:
		return nil, fmt.Errorf("core: unknown scheme %d", int(scheme))
	}
	if err != nil {
		return nil, err
	}
	e.stats.SymbolSelect = time.Since(t0)

	t1 := time.Now()
	var codes []hutucker.Code
	if scheme == ALM {
		codes = hutucker.FixedLengthCodes(len(intervals))
	} else {
		weights := make([]float64, len(intervals))
		for i, iv := range intervals {
			weights[i] = iv.Weight
		}
		if opt.UseRangeEncoding {
			codes = hutucker.RangeCodes(weights)
		} else {
			codes = hutucker.BuildWith(weights, opt.CodeAlgorithm)
		}
	}
	widenZeroCode(codes)
	e.stats.CodeAssign = time.Since(t1)

	t2 := time.Now()
	e.entries = make([]dict.Entry, len(intervals))
	for i, iv := range intervals {
		e.entries[i] = dict.Entry{
			Boundary:  iv.Boundary,
			SymbolLen: uint8(len(iv.Symbol)),
			Code:      codes[i],
		}
	}
	e.dict, err = buildDictionary(scheme, opt, e.entries)
	if err != nil {
		return nil, err
	}
	e.stats.DictBuild = time.Since(t2)
	e.stats.Entries = len(e.entries)
	return e, nil
}

// widenZeroCode is the exactness guard of stored encodings. Trees store
// code bits padded with up to 7 zero bits, so an all-zero code shorter
// than 8 bits could hide inside the padding, and two keys would share
// padded bytes. Only entry 0 can have an all-zero code: it would be the
// smallest left-aligned string, and the codes sort in entry order. Widening
// it to 8 zero bits keeps the set prefix-free and ordered, because no other
// code starts with entry 0's bits, and it makes the padded order strict
// and every padded encoding decode to exactly one key (see TableDecoder).
// Reassemble refuses a code set without this guard.
func widenZeroCode(codes []hutucker.Code) {
	if len(codes) > 0 && codes[0].Bits == 0 && codes[0].Len < 8 {
		codes[0] = hutucker.Code{Len: 8}
	}
}

func buildDictionary(scheme Scheme, opt Options, entries []dict.Entry) (dict.Dictionary, error) {
	if opt.ForceBinarySearchDict {
		return dict.NewBinarySearch(entries)
	}
	switch scheme {
	case SingleChar:
		return dict.NewSingleCharArray(entries)
	case DoubleChar:
		return dict.NewDoubleCharArray(opt.DoubleCharAlphabet, entries)
	case ThreeGrams:
		return dict.NewBitmapTrie(3, entries)
	case FourGrams:
		return dict.NewBitmapTrie(4, entries)
	default: // ALM, ALM-Improved
		return dict.NewARTDict(entries)
	}
}

// Clone returns an encoder that shares the read-only build artifacts (the
// dictionary and its entries) but owns fresh point-encode state.
// Dictionary lookups are immutable after Build, so clones are independent
// single-writer encoders over one dictionary — the per-shard encoder a
// concurrent serving layer needs (see hope.ShardedIndex). Cloning is
// O(1); no dictionary is rebuilt.
func (e *Encoder) Clone() *Encoder {
	c := *e
	c.app = appender{}
	return &c
}

// Scheme returns the encoder's compression scheme.
func (e *Encoder) Scheme() Scheme { return e.scheme }

// Stats returns the build-phase time breakdown.
func (e *Encoder) Stats() BuildStats { return e.stats }

// NumEntries returns the dictionary size.
func (e *Encoder) NumEntries() int { return e.dict.NumEntries() }

// MemoryUsage returns the dictionary's modeled footprint in bytes.
func (e *Encoder) MemoryUsage() int { return e.dict.MemoryUsage() }

// Entries exposes the dictionary's interval entries (read-only; used by
// the decoder, by diagnostics, and by snapshot serialization).
func (e *Encoder) Entries() []dict.Entry { return e.entries }

// structuralOptions reduces opt to the fields that shape the dictionary
// structure — everything Reassemble needs, nothing symbol selection used.
func structuralOptions(opt Options) Options {
	return Options{
		DoubleCharAlphabet:    opt.DoubleCharAlphabet,
		ForceBinarySearchDict: opt.ForceBinarySearchDict,
	}
}

// StructuralOptions returns the build options that shape the dictionary
// structure (DoubleCharAlphabet, ForceBinarySearchDict): persist these
// alongside Entries and hand both to Reassemble to reconstruct an
// encode-identical encoder without re-running the build phase.
func (e *Encoder) StructuralOptions() Options { return e.structOpt }

// Dictionary exposes the underlying lookup structure (read-only).
func (e *Encoder) Dictionary() dict.Dictionary { return e.dict }
