package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
)

// digest is the canonical fingerprint of one operation's output: per
// predicate (in name order) its total fact count, then its null-free
// facts rendered in surface syntax and sorted. Facts carrying labelled
// nulls are counted but not listed, so the digest is invariant under
// fact order and null numbering.
func digest(out map[string][]ast.Fact) string {
	preds := make([]string, 0, len(out))
	for p := range out {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	h := sha256.New()
	var lines []string
	for _, p := range preds {
		facts := out[p]
		fmt.Fprintf(h, "%s %d\n", p, len(facts))
		lines = lines[:0]
		for _, f := range facts {
			if hasNull(f) {
				continue
			}
			lines = append(lines, f.String())
		}
		sort.Strings(lines)
		h.Write([]byte(strings.Join(lines, "\n")))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

func hasNull(f ast.Fact) bool {
	for _, a := range f.Args {
		if a.IsNull() {
			return true
		}
	}
	return false
}
