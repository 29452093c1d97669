package core

import (
	"errors"
	"fmt"

	"repro/internal/dict"
)

// Reassemble reconstructs an Encoder from a previously built dictionary's
// interval entries — the restore path of a persisted index. Build's two
// expensive phases (symbol selection over the sample, optimal code
// assignment) are skipped entirely: the entries already carry their
// boundaries, symbol lengths, and codes, so only the scheme's lookup
// structure is rebuilt over them (the DictBuild phase, linear in the
// dictionary size). opt must carry the same structural options the
// original Build used (DoubleCharAlphabet, ForceBinarySearchDict);
// everything else in Options only shapes symbol selection and is ignored.
//
// A reassembled encoder is encode-identical to the original: identical
// entries produce identical kernels, so every key maps to the same bits —
// which is what lets a snapshot's encoded runs be loaded back verbatim.
// The entries slice is retained; callers hand over ownership.
//
// Reassemble admits only code sets whose padded encodings keep the key
// order strict: the codes must ascend strictly in entry order and be
// prefix-free (the dictionary constructors refuse anything else), and
// entry 0 must not be an all-zero code under 8 bits (ErrAmbiguousPadding),
// the guard Build applies itself (widenZeroCode).
func Reassemble(scheme Scheme, opt Options, entries []dict.Entry) (*Encoder, error) {
	opt.fill()
	e := &Encoder{scheme: scheme, entries: entries, structOpt: structuralOptions(opt)}
	switch scheme {
	case SingleChar:
		e.lookAhead = 1
	case DoubleChar:
		e.lookAhead = 2
	case ThreeGrams:
		e.lookAhead = 3
	case FourGrams:
		e.lookAhead = 4
	case ALM, ALMImproved:
		// Arbitrary-length symbols: no look-ahead, no batch kernel.
	default:
		return nil, fmt.Errorf("core: unknown scheme %d", int(scheme))
	}
	if len(entries) > 0 {
		if c := entries[0].Code; c.Bits == 0 && c.Len < 8 {
			return nil, ErrAmbiguousPadding
		}
	}
	var err error
	e.dict, err = buildDictionary(scheme, opt, entries)
	if err != nil {
		return nil, err
	}
	e.kern, _ = e.dict.(dict.Kernel)
	e.batch, _ = e.dict.(dict.BatchKernel)
	e.stats.Entries = len(entries)
	return e, nil
}

// ErrAmbiguousPadding: the dictionary gives entry 0 an all-zero code
// shorter than 8 bits, which the zero padding of a stored encoding can
// hide, so a key and the key extended by entry 0's symbol would share
// stored bytes. Build never makes such a dictionary; Reassemble refuses
// one.
var ErrAmbiguousPadding = errors.New("core: entry 0 has an all-zero code under 8 bits; padded encodings are ambiguous")
