package ingest

import (
	"sort"

	"repro/internal/catalog"
)

// View is one immutable, generation-stamped snapshot of a live collection.
// Every mutation and every compaction publishes a fresh View (copy-on-write
// pointer swap), so an in-flight query runs entirely against the snapshot it
// started with: it can never observe half of a Put, and compaction never
// blocks it.
//
// A View is a catalog.Collection over exactly the live documents, assembled
// at publish time from their already-built indexes (nothing is rebuilt), so
// every query, metadata getter and cost estimate is the collection's own.
// Documents are numbered by the lexicographic rank of their ID, so a
// collection reached through any Put/Delete/compaction history answers
// queries bit-identically — results and cost counters alike — to a
// statically built catalog over the same final document set (see the
// equivalence test). Each publish draws a fresh collection id, which
// result caches fold into their keys, so a cached result never outlives
// the snapshot it was computed against.
type View struct {
	*catalog.Collection
	gen uint64   // mutation generation of the owning collection
	ids []string // document number → external id
	// deltaDocs and tombstones are the compaction debt: live documents put
	// since the last compaction, and documents of that compaction's set
	// deleted or replaced since.
	deltaDocs  int
	tombstones int
}

// Gen returns the owning collection's mutation generation at publish time.
func (v *View) Gen() uint64 { return v.gen }

// DeltaDocs returns how many live documents were put since the last
// compaction.
func (v *View) DeltaDocs() int { return v.deltaDocs }

// Tombstones returns how many documents of the last compaction's set were
// deleted or replaced since.
func (v *View) Tombstones() int { return v.tombstones }

// DocID returns the external id of document number doc.
func (v *View) DocID(doc int) (string, bool) {
	if doc < 0 || doc >= len(v.ids) {
		return "", false
	}
	return v.ids[doc], true
}

// DocNumber returns the document number of an external id.
func (v *View) DocNumber(id string) (int, bool) {
	i := sort.SearchStrings(v.ids, id)
	if i < len(v.ids) && v.ids[i] == id {
		return i, true
	}
	return 0, false
}
