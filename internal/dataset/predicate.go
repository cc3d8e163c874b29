package dataset

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/colcodec"
)

// PredicateOp is a comparison operator of a value predicate.
type PredicateOp int

// PredicateOp values.
const (
	// OpLT keeps rows whose column is strictly below the constant.
	OpLT = PredicateOp(colcodec.OpLT)
	// OpLE keeps rows whose column is at most the constant.
	OpLE = PredicateOp(colcodec.OpLE)
	// OpGT keeps rows whose column is strictly above the constant.
	OpGT = PredicateOp(colcodec.OpGT)
	// OpGE keeps rows whose column is at least the constant.
	OpGE = PredicateOp(colcodec.OpGE)
	// OpEQ keeps rows whose column equals the constant exactly.
	OpEQ = PredicateOp(colcodec.OpEQ)
	// OpNE keeps rows whose column differs from the constant.
	OpNE = PredicateOp(colcodec.OpNE)
)

// String returns the SQL-style operator spelling.
func (op PredicateOp) String() string {
	switch op {
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpEQ:
		return "=="
	case OpNE:
		return "!="
	}
	return fmt.Sprintf("PredicateOp(%d)", int(op))
}

// codec returns the operator as the codec layer's in-place comparison;
// the two enumerations share their values.
func (op PredicateOp) codec() colcodec.Op { return colcodec.Op(op) }

// valid reports whether op is a known operator.
func (op PredicateOp) valid() bool { return op >= OpLT && op <= OpNE }

// Predicate is one conjunct of a table filter. Two forms exist:
//
//   - a value comparison — Column op Value — over the aggregated value
//     column (Column "" or the column's ingested name) or any extra
//     numeric column the table carries;
//   - a group-name inclusion — Groups non-empty — keeping only the listed
//     groups. Inclusion predicates answer from the table's group index
//     (the offsets) without touching a single row.
//
// A filter is the conjunction of its predicates.
type Predicate struct {
	// Column names the compared column: "" (or the table's value-column
	// name) for the aggregated value, otherwise an extra column name.
	// Ignored for inclusion predicates.
	Column string
	// Op is the comparison operator.
	Op PredicateOp
	// Value is the comparison constant.
	Value float64
	// Groups, when non-empty, turns the predicate into a group-name
	// inclusion filter; Column/Op/Value are ignored.
	Groups []string
}

// String renders the predicate the way the vizsample -where flag parses it.
func (p Predicate) String() string {
	if len(p.Groups) > 0 {
		return "group in " + strings.Join(p.Groups, "|")
	}
	col := p.Column
	if col == "" {
		col = "value"
	}
	return fmt.Sprintf("%s%s%v", col, p.Op, p.Value)
}

// FingerprintPredicates returns a canonical key for a predicate
// conjunction: conjunction order is irrelevant (AND commutes), group lists
// are order-insensitive sets, and float constants are keyed by their exact
// bit pattern. Two Where clauses with equal fingerprints select exactly the
// same rows of any table, which is what lets the engine reuse one cached
// selection across queries.
func FingerprintPredicates(preds []Predicate) string {
	parts := make([]string, 0, len(preds))
	for _, p := range preds {
		if len(p.Groups) > 0 {
			names := append([]string(nil), p.Groups...)
			sort.Strings(names)
			parts = append(parts, "g:"+strings.Join(names, "\x00"))
			continue
		}
		parts = append(parts, fmt.Sprintf("v:%s\x00%d\x00%s",
			p.Column, int(p.Op), strconv.FormatUint(math.Float64bits(p.Value), 16)))
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x01")
}

// validatePredicates resolves every predicate against the table's columns:
// value predicates get a column index (-1 for the aggregated value column,
// otherwise an index into the extra columns), inclusion predicates get
// their group names checked against the dictionary. Unknown columns,
// unknown groups, NaN constants, and unknown operators are rejected here so
// filter errors name the mistake rather than surfacing as empty views.
func (t *Table) validatePredicates(preds []Predicate) (valuePreds []resolvedPredicate, include map[int]bool, err error) {
	for _, p := range preds {
		if len(p.Groups) > 0 {
			set := map[int]bool{}
			for _, name := range p.Groups {
				gi := -1
				for i, n := range t.names {
					if n == name {
						gi = i
						break
					}
				}
				if gi < 0 {
					return nil, nil, fmt.Errorf("dataset: filter names unknown group %q", name)
				}
				set[gi] = true
			}
			// Conjunction of inclusion lists: intersect.
			if include == nil {
				include = set
			} else {
				for gi := range include {
					if !set[gi] {
						delete(include, gi)
					}
				}
			}
			continue
		}
		if !p.Op.valid() {
			return nil, nil, fmt.Errorf("dataset: filter has unknown operator %v", p.Op)
		}
		if math.IsNaN(p.Value) {
			return nil, nil, fmt.Errorf("dataset: filter constant for column %q is NaN", p.Column)
		}
		col := -1
		if p.Column != "" && p.Column != "value" && p.Column != t.valueName {
			col = -2
			for i, n := range t.extraNames {
				if n == p.Column {
					col = i
					break
				}
			}
			if col == -2 {
				return nil, nil, fmt.Errorf("dataset: filter names unknown column %q (have value column %q and extra columns %v)",
					p.Column, t.valueName, t.extraNames)
			}
		}
		valuePreds = append(valuePreds, resolvedPredicate{col: col, op: p.Op, c: p.Value})
	}
	return valuePreds, include, nil
}

// resolvedPredicate is a value predicate bound to a concrete column:
// col == -1 is the aggregated value column, col >= 0 indexes the extras.
type resolvedPredicate struct {
	col int
	op  PredicateOp
	c   float64
}
