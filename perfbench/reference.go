package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"oblivjoin"
)

// multiset is a bag of output rows, each rendered canonically as its
// "table.column=value" pairs in column-name order.
type multiset map[string]int

// rowsOf renders a join output (qualified column names plus tuples) as a
// multiset, independent of the column order the operator chose.
func rowsOf(cols []string, tuples []oblivjoin.Tuple) multiset {
	order := make([]int, len(cols))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cols[order[a]] < cols[order[b]] })
	out := make(multiset, len(tuples))
	var sb strings.Builder
	for _, t := range tuples {
		sb.Reset()
		for _, i := range order {
			sb.WriteString(cols[i])
			sb.WriteByte('=')
			if i < len(t.Values) {
				sb.WriteString(strconv.FormatInt(t.Values[i], 10))
			}
			sb.WriteByte(' ')
		}
		out[sb.String()]++
	}
	return out
}

func (m multiset) size() int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

// diff describes how got differs from want, or returns "" when equal.
func (want multiset) diff(got multiset) string {
	missing, extra := 0, 0
	for k, n := range want {
		if d := n - got[k]; d > 0 {
			missing += d
		}
	}
	for k, n := range got {
		if d := n - want[k]; d > 0 {
			extra += d
		}
	}
	if missing == 0 && extra == 0 {
		return ""
	}
	return fmt.Sprintf("%d expected rows missing, %d unexpected rows", missing, extra)
}

// referenceJoin is the plaintext hash join the benchmark checks every
// query against: the listed tables, each filtered by its predicates, joined
// under the equi predicates of an acyclic query.
func referenceJoin(rels map[string]*oblivjoin.Relation, q oblivjoin.Query) (multiset, error) {
	rows := make(map[string][]oblivjoin.Tuple, len(q.Tables))
	for _, name := range q.Tables {
		rel, ok := rels[name]
		if !ok {
			return nil, fmt.Errorf("reference: unknown table %q", name)
		}
		var preds []oblivjoin.SelectPred
		for _, f := range q.Filters {
			if f.Table == name {
				preds = append(preds, f.Preds...)
			}
		}
		for _, t := range rel.Tuples {
			keep := true
			for _, p := range preds {
				if !holds(t.Values[rel.Schema.Col(p.Column)], p.Op, p.Value) {
					keep = false
					break
				}
			}
			if keep {
				rows[name] = append(rows[name], t)
			}
		}
	}

	// A binding maps every joined table to one of its rows; grow the
	// bindings one predicate at a time, hashing the unbound side.
	type binding map[string]oblivjoin.Tuple
	first := q.Tables[0]
	var cur []binding
	for _, t := range rows[first] {
		cur = append(cur, binding{first: t})
	}
	bound := map[string]bool{first: true}
	pending := append([]oblivjoin.Pred(nil), q.Preds...)
	for len(pending) > 0 {
		progressed := false
		for i, p := range pending {
			from, fromAttr, to, toAttr := p.Left, p.LeftAttr, p.Right, p.RightAttr
			if bound[to] && !bound[from] {
				from, fromAttr, to, toAttr = to, toAttr, from, fromAttr
			}
			if !bound[from] || bound[to] {
				continue
			}
			toCol := rels[to].Schema.Col(toAttr)
			fromCol := rels[from].Schema.Col(fromAttr)
			index := make(map[int64][]oblivjoin.Tuple)
			for _, t := range rows[to] {
				index[t.Values[toCol]] = append(index[t.Values[toCol]], t)
			}
			var next []binding
			for _, b := range cur {
				for _, t := range index[b[from].Values[fromCol]] {
					nb := make(binding, len(b)+1)
					for k, v := range b {
						nb[k] = v
					}
					nb[to] = t
					next = append(next, nb)
				}
			}
			cur, bound[to] = next, true
			pending = append(pending[:i], pending[i+1:]...)
			progressed = true
			break
		}
		if !progressed {
			return nil, fmt.Errorf("reference: query is not a connected acyclic join")
		}
	}

	var cols []string
	var tuples []oblivjoin.Tuple
	for _, name := range q.Tables {
		for _, c := range rels[name].Schema.Columns {
			cols = append(cols, name+"."+c)
		}
	}
	for _, b := range cur {
		var vals []int64
		for _, name := range q.Tables {
			vals = append(vals, b[name].Values...)
		}
		tuples = append(tuples, oblivjoin.Tuple{Values: vals})
	}
	return rowsOf(cols, tuples), nil
}

func holds(v int64, op oblivjoin.CompareOp, c int64) bool {
	switch op {
	case oblivjoin.EQ:
		return v == c
	case oblivjoin.NE:
		return v != c
	case oblivjoin.LT:
		return v < c
	case oblivjoin.LE:
		return v <= c
	case oblivjoin.GT:
		return v > c
	case oblivjoin.GE:
		return v >= c
	}
	return false
}
