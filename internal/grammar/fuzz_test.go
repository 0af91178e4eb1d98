// FuzzDecode locks in the decoder hardening of the binary grammar
// format: Decode runs on untrusted input, so no byte stream — however
// corrupt — may panic, exhaust memory, or produce a grammar that fails
// its own invariants. Any grammar that does decode must round-trip
// through Encode byte-exactly and survive the cheap analyses.
//
// External test package: the seed corpus is built with the real
// compressors on the same corpus constructions the parity harness
// (testdata/parity.json) pins, which would be an import cycle from
// inside package grammar.
package grammar_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/datasets"
	"repro/internal/grammar"
	"repro/internal/treerepair"
	"repro/internal/update"
	"repro/internal/workload"
)

// fuzzUv appends a uvarint to a hand-crafted seed stream.
func fuzzUv(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b.Write(tmp[:n])
}

// decodeSeeds returns the seed corpus of FuzzDecode, which FuzzPrune
// shares.
func decodeSeeds(f *testing.F) [][]byte {
	var seeds [][]byte
	addGrammar := func(g *grammar.Grammar) {
		var b bytes.Buffer
		if err := grammar.Encode(&b, g); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b.Bytes())
	}

	// Real encodings: every parity corpus at tiny scale, compressed with
	// TreeRePair, plus an update-degraded variant — the same shapes the
	// parity harness pins, so the fuzzer starts from the streams the
	// repo actually produces.
	for _, c := range datasets.Corpora() {
		u := c.Generate(0.01, 20160516)
		doc := u.Binary()
		g, _ := treerepair.Compress(doc, treerepair.Options{})
		addGrammar(g)
		degraded := g.Clone()
		if err := update.ApplyAll(degraded, workload.Renames(doc, 10, 7)); err == nil {
			addGrammar(degraded)
		}
	}

	// Hostile shapes from the hardening tests: lying child counts, rank
	// beyond body size, deep nesting prefixes, truncations.
	var hostile bytes.Buffer
	hostile.WriteString("SLTG")
	fuzzUv(&hostile, 1) // version
	fuzzUv(&hostile, 1) // one symbol
	fuzzUv(&hostile, 1)
	hostile.WriteString("a")
	fuzzUv(&hostile, 2) // rank 2
	fuzzUv(&hostile, 0) // start ID
	fuzzUv(&hostile, 1) // one rule
	fuzzUv(&hostile, 0)
	fuzzUv(&hostile, 0)
	fuzzUv(&hostile, 3)
	fuzzUv(&hostile, 1)
	fuzzUv(&hostile, 5)
	fuzzUv(&hostile, 1<<40)
	return append(seeds, hostile.Bytes(), []byte("SLTG"), []byte{})
}

func FuzzDecode(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			// The hardening bounds are about per-byte leverage, not about
			// surviving arbitrarily large genuine inputs; keep iterations
			// fast.
			return
		}
		g, err := grammar.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Decode validates internally; a grammar that slipped through with
		// broken invariants is exactly the crasher class this target
		// exists to catch.
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded grammar fails validation: %v", err)
		}
		var b bytes.Buffer
		if err := grammar.Encode(&b, g); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		g2, err := grammar.Decode(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		var b2 bytes.Buffer
		if err := grammar.Encode(&b2, g2); err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(b.Bytes(), b2.Bytes()) {
			t.Fatal("Encode/Decode round-trip changed the grammar")
		}
		// The cheap analyses must be total on any valid grammar:
		// saturation is reported through errors, never through panics or
		// bogus values.
		_ = g.Size()
		if n, err := g.ValNodeCount(); err == nil && n < 1 {
			t.Fatalf("derived tree has %d nodes", n)
		}
	})
}

// FuzzPrune checks the call-site-list Prune against the whole-grammar
// refPrune on every valid grammar the fuzzer can decode: both must remove
// the same number of rules and leave byte-identical encodings, and
// neither may panic.
func FuzzPrune(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
	}
	// The grammars TreeRePair hands to Prune, before it prunes them.
	for _, c := range datasets.Corpora() {
		doc := c.Generate(0.01, 20160516).Binary()
		var b bytes.Buffer
		if err := grammar.Encode(&b, treerepair.Unpruned(doc.Syms, doc.Root, treerepair.Options{})); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // refPrune is O(k·|G|); keep iterations fast
		}
		g, err := grammar.Decode(bytes.NewReader(data))
		if err != nil || g.Validate() != nil {
			return
		}
		if err := grammar.PruneDiff(g); err != nil {
			t.Fatal(err)
		}
	})
}
