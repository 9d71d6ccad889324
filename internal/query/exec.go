package query

import (
	"fmt"

	"dpsync/internal/record"
)

// Tables maps each provider to its stored rows. Both the logical database
// (ground truth) and the substrates' decrypted stores satisfy this shape.
type Tables map[record.Provider][]record.Record

// Execute evaluates a compiled plan over the given tables and returns the
// answer. GroupBy plans return per-location counts (Groups), everything else
// returns a Scalar.
func Execute(p *Plan, tables Tables) (Answer, error) {
	switch p.Op {
	case OpCount:
		n, err := cardinality(p.Children[0], tables, Predicate{})
		if err != nil {
			return Answer{}, err
		}
		return Answer{Scalar: float64(n)}, nil
	case OpSum:
		rows, err := rows(p.Children[0], tables)
		if err != nil {
			return Answer{}, err
		}
		if len(p.Attrs) != 1 || p.Attrs[0] != AttrFare {
			return Answer{}, fmt.Errorf("query: sum supports fare only, got %v", p.Attrs)
		}
		var sum float64
		for _, r := range rows {
			sum += float64(r.FareCents)
		}
		return Answer{Scalar: sum}, nil
	case OpGroupBy:
		rows, err := rows(p.Children[0], tables)
		if err != nil {
			return Answer{}, err
		}
		if len(p.Attrs) != 1 || p.Attrs[0] != AttrPickupID {
			return Answer{}, fmt.Errorf("query: group-by supports pickupID only, got %v", p.Attrs)
		}
		groups := make([]float64, record.NumLocations)
		for _, r := range rows {
			if r.PickupID >= 1 && r.PickupID <= record.NumLocations {
				groups[r.PickupID-1]++
			}
			// Rows outside the domain (dummy padding reaching an unrewritten
			// plan) land nowhere, mirroring Appendix B's requirement that
			// dummies never join a real group.
		}
		return Answer{Groups: groups}, nil
	default:
		n, err := cardinality(p, tables, Predicate{})
		if err != nil {
			return Answer{}, err
		}
		return Answer{Scalar: float64(n)}, nil
	}
}

// cardinality counts the rows p produces without materializing them. pred
// accumulates filters seen on the way down; at a join it applies to the
// *left* record (a filter above a join reads its left side; no compiled plan
// puts one there). The join itself is counted as Σ_l |{r : key(r) = key(l)}|
// from a right-side multiplicity map — O(|L|+|R|), and the only way a join
// is evaluated: every compiled join sits under a count, so none produces
// rows.
func cardinality(p *Plan, tables Tables, pred Predicate) (int64, error) {
	if p == nil {
		return 0, fmt.Errorf("query: nil plan node")
	}
	switch p.Op {
	case OpScan:
		var n int64
		for _, r := range tables[p.Table] {
			if pred.Matches(r) {
				n++
			}
		}
		return n, nil
	case OpFilter:
		return cardinality(p.Children[0], tables, pred.And(p.Pred))
	case OpProject:
		return cardinality(p.Children[0], tables, pred)
	case OpJoin:
		if len(p.Children) != 2 {
			return 0, fmt.Errorf("query: join needs 2 children, has %d", len(p.Children))
		}
		keyOf, err := joinKey(p.Attrs)
		if err != nil {
			return 0, err
		}
		index := make(map[int64]int64)
		if err := forEachRow(p.Children[1], tables, func(r record.Record) {
			index[keyOf(r)]++
		}); err != nil {
			return 0, err
		}
		var total int64
		if err := forEachRow(p.Children[0], tables, func(r record.Record) {
			if pred.Matches(r) {
				total += index[keyOf(r)]
			}
		}); err != nil {
			return 0, err
		}
		return total, nil
	default:
		rs, err := rows(p, tables)
		if err != nil {
			return 0, err
		}
		var n int64
		for _, r := range rs {
			if pred.Matches(r) {
				n++
			}
		}
		return n, nil
	}
}

// forEachRow streams the rows of a filter/project/scan fragment to fn
// without building intermediate slices; other operators fall back to rows().
func forEachRow(p *Plan, tables Tables, fn func(record.Record)) error {
	if p == nil {
		return fmt.Errorf("query: nil plan node")
	}
	switch p.Op {
	case OpScan:
		for _, r := range tables[p.Table] {
			fn(r)
		}
		return nil
	case OpFilter:
		return forEachRow(p.Children[0], tables, func(r record.Record) {
			if p.Pred.Matches(r) {
				fn(r)
			}
		})
	case OpProject:
		return forEachRow(p.Children[0], tables, fn)
	default:
		rs, err := rows(p, tables)
		if err != nil {
			return err
		}
		for _, r := range rs {
			fn(r)
		}
		return nil
	}
}

// joinKey resolves the key extractor for a single-attribute equi-join.
func joinKey(attrs []Attr) (func(r record.Record) int64, error) {
	if len(attrs) != 1 {
		return nil, fmt.Errorf("query: join supports exactly one key, got %d", len(attrs))
	}
	switch attrs[0] {
	case AttrPickupTime:
		return func(r record.Record) int64 { return int64(r.PickupTime) }, nil
	case AttrPickupID:
		return func(r record.Record) int64 { return int64(r.PickupID) }, nil
	default:
		return nil, fmt.Errorf("query: unsupported join key %v", attrs[0])
	}
}

// rows evaluates the row-producing fragment of a plan.
func rows(p *Plan, tables Tables) ([]record.Record, error) {
	if p == nil {
		return nil, fmt.Errorf("query: nil plan node")
	}
	switch p.Op {
	case OpScan:
		return tables[p.Table], nil
	case OpFilter:
		in, err := rows(p.Children[0], tables)
		if err != nil {
			return nil, err
		}
		var out []record.Record
		for _, r := range in {
			if p.Pred.Matches(r) {
				out = append(out, r)
			}
		}
		return out, nil
	case OpProject:
		// Projection does not change cardinality; attribute narrowing is a
		// no-op on the in-memory record representation.
		return rows(p.Children[0], tables)
	case OpJoin, OpCount, OpGroupBy, OpSum:
		return nil, fmt.Errorf("query: %v is not a row producer", p.Op)
	default:
		return nil, fmt.Errorf("query: unknown op %v", p.Op)
	}
}

// Truth evaluates q over the logical database tables (which contain no
// dummies) using the naive plan. It is the reference answer for the paper's
// L1 query-error metric.
func Truth(q Query, tables Tables) (Answer, error) {
	p, err := Compile(q)
	if err != nil {
		return Answer{}, err
	}
	return Execute(p, tables)
}

// Evaluate compiles q, applies the Appendix-B rewrite, and executes the naive
// plan over dummy-bearing tables: the oracle the substrates' incremental
// answers (query.Aggregates) are tested against. No substrate runs it.
func Evaluate(q Query, tables Tables) (Answer, error) {
	p, err := Compile(q)
	if err != nil {
		return Answer{}, err
	}
	rw := Rewrite(p)
	if !IsDummyFree(rw) {
		return Answer{}, fmt.Errorf("query: rewrite failed to guard plan %s", rw)
	}
	return Execute(rw, tables)
}
