package grammar_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/grammar"
	"repro/internal/treerepair"
	"repro/internal/update"
	"repro/internal/workload"
)

// TestPruneMatchesRefCompressors runs the Prune-versus-refPrune
// differential on the grammars both compressors hand to Prune: TreeRePair
// on each parity corpus, and GrammarRePair in both replacement modes on
// that corpus's TreeRePair grammar degraded by renames and on the Gn
// family. The finished grammars are checked as well.
func TestPruneMatchesRefCompressors(t *testing.T) {
	scale := 0.05
	if testing.Short() {
		scale = 0.02
	}
	check := func(name string, g *grammar.Grammar) {
		t.Helper()
		if err := grammar.PruneDiff(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	modes := []core.Options{{}, {NoOptimize: true}}
	for _, c := range datasets.Corpora() {
		doc := c.Generate(scale, 20160516).Binary()
		check(c.Short+"/treerepair-unpruned", treerepair.Unpruned(doc.Syms, doc.Root, treerepair.Options{}))
		tg, _ := treerepair.Compress(doc, treerepair.Options{})
		check(c.Short+"/treerepair", tg)
		if err := update.ApplyAll(tg, workload.Renames(doc, 40, 7)); err != nil {
			t.Fatal(err)
		}
		check(c.Short+"/renamed", tg)
		for _, opt := range modes {
			check(fmt.Sprintf("%s/recompress-unpruned/noopt=%v", c.Short, opt.NoOptimize), core.Unpruned(tg, opt))
		}
	}
	for n := 1; n <= 12; n++ {
		g := datasets.Gn(n)
		check(fmt.Sprintf("G%d", n), g)
		for _, opt := range modes {
			check(fmt.Sprintf("G%d/recompress-unpruned/noopt=%v", n, opt.NoOptimize), core.Unpruned(g, opt))
		}
	}
}
