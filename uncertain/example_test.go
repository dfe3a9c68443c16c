package uncertain_test

import (
	"bytes"
	"fmt"
	"strings"

	"repro/uncertain"
)

// The paper's Figure 5 special uncertain string as a general string:
// (b,.4)(a,.7)(n,.5)(a,.8)(n,.9)(a,.6).
const banana = `b:0.4 x:0.6
a:0.7 x:0.3
n:0.5 x:0.5
a:0.8 x:0.2
n:0.9 x:0.1
a:0.6 x:0.4
`

func ExampleNewIndex() {
	s, err := uncertain.Parse(strings.NewReader(banana))
	if err != nil {
		panic(err)
	}
	ix, err := uncertain.NewIndex(s, 0.1)
	if err != nil {
		panic(err)
	}
	// The paper's Figure 5 query: "ana" above τ = 0.3 matches only at
	// position 3 (probability .8·.9·.6 = .432); position 1 (.7·.5·.8 = .28)
	// falls below.
	positions, err := ix.Search([]byte("ana"), 0.3)
	if err != nil {
		panic(err)
	}
	fmt.Println(positions)
	// Output: [3]
}

func ExampleIndex_SearchHitsCosted() {
	s := uncertain.Must(uncertain.Parse(strings.NewReader(banana)))
	ix := uncertain.Must(uncertain.NewIndex(s, 0.1))
	hits := uncertain.Must(ix.SearchHitsCosted([]byte("ana"), 0.2, nil))
	for _, h := range hits {
		fmt.Printf("position %d probability %.3f\n", h.Orig, h.Prob())
	}
	// Output:
	// position 3 probability 0.432
	// position 1 probability 0.280
}

func ExampleIndex_SearchTopKCosted() {
	s := uncertain.Must(uncertain.Parse(strings.NewReader(banana)))
	ix := uncertain.Must(uncertain.NewIndex(s, 0.1))
	top := uncertain.Must(ix.SearchTopKCosted([]byte("an"), 1, nil))
	fmt.Printf("best: position %d (%.2f)\n", top[0].Orig, top[0].Prob())
	// Output: best: position 3 (0.72)
}

func ExampleNewCollectionIndex() {
	docs := uncertain.Must(uncertain.ParseCollection(strings.NewReader(
		"A:0.4 B:0.3 F:0.3\nB:0.3 L:0.3 F:0.3 J:0.1\nF:0.5 J:0.5\n" +
			"%\nA:1\nB:1\nF:1\n")))
	cx := uncertain.Must(uncertain.NewCollectionIndex(docs, 0.05))
	// "BF" occurs in doc 0 with max probability .3·.5 = .15 and in doc 1
	// certainly.
	fmt.Println(uncertain.Must(cx.List([]byte("BF"), 0.1)))
	fmt.Println(uncertain.Must(cx.List([]byte("BF"), 0.5)))
	// Output:
	// [0 1]
	// [1]
}

func ExampleFromIUPAC() {
	// R = A or G: the motif "TAG" matches "TARG"[1:] ... at position 1 of
	// "ATRG"? Keep it simple: "AR" → "AA" and "AG" each with probability ½.
	s, err := uncertain.FromIUPAC("ARG")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.2f\n", s.OccurrenceProb([]byte("AAG"), 0))
	fmt.Printf("%.2f\n", s.OccurrenceProb([]byte("AGG"), 0))
	// Output:
	// 0.50
	// 0.50
}

func ExampleIndex_WriteTo() {
	s := uncertain.Must(uncertain.Parse(strings.NewReader(banana)))
	ix := uncertain.Must(uncertain.NewIndex(s, 0.1))
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		panic(err)
	}
	back := uncertain.Must(uncertain.ReadIndex(&buf))
	fmt.Println(uncertain.Must(back.Search([]byte("ana"), 0.3)))
	// Output: [3]
}

func ExampleNewApproxIndex() {
	s := uncertain.Must(uncertain.Parse(strings.NewReader(banana)))
	ax := uncertain.Must(uncertain.NewApproxIndex(s, 0.1, 0.05))
	// With ε = 0.05 every reported match has true probability > τ − 0.05:
	// position 3 is a true 0.432 match; position 1 (true probability 0.28)
	// is a legitimate within-ε report for τ = 0.3.
	for _, m := range uncertain.Must(ax.Search([]byte("ana"), 0.3)) {
		fmt.Printf("position %d (approx %.3f)\n", m.Pos, m.ApproxProb)
	}
	// Output:
	// position 1 (approx 0.252)
	// position 3 (approx 0.432)
}

func ExampleNewSpecialIndex() {
	// The paper's Figure 5 string: one probabilistic character per position.
	s := &uncertain.SpecialString{
		Chars: []byte("banana"),
		Probs: []float64{0.4, 0.7, 0.5, 0.8, 0.9, 0.6},
	}
	ix := uncertain.Must(uncertain.NewSpecialIndex(s))
	// Any τ works — no construction threshold.
	fmt.Println(uncertain.Must(ix.Search([]byte("ana"), 0.3)))
	fmt.Println(uncertain.Must(ix.Search([]byte("ana"), 0.001)))
	// Output:
	// [3]
	// [1 3]
}

func ExampleSearchOnline() {
	s := uncertain.Must(uncertain.Parse(strings.NewReader(banana)))
	fmt.Println(uncertain.SearchOnline(s, []byte("ana"), 0.2))
	// Output: [1 3]
}
