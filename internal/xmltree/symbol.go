// Package xmltree provides the tree substrate of the reproduction:
// ranked labeled ordered trees with formal parameters (Section II of the
// paper), the binary first-child/next-sibling encoding of XML documents,
// and structure-only XML parsing and serialization.
package xmltree

import (
	"fmt"
	"strconv"
)

// SymKind distinguishes the three symbol classes of the formal model:
// ranked terminals (F), ranked nonterminals (N), and formal parameters (Y).
type SymKind uint8

const (
	// Terminal symbols carry document labels; their rank is fixed by the
	// SymbolTable. The empty node ⊥ is the distinguished terminal BottomID.
	Terminal SymKind = iota
	// Nonterminal symbols name grammar rules; their rank is the number of
	// formal parameters of the rule.
	Nonterminal
	// Parameter symbols y1, y2, ... have rank 0 and ID = parameter index
	// (1-based, matching the paper's y_i notation).
	Parameter
)

func (k SymKind) String() string {
	switch k {
	case Terminal:
		return "terminal"
	case Nonterminal:
		return "nonterminal"
	case Parameter:
		return "parameter"
	}
	return fmt.Sprintf("SymKind(%d)", uint8(k))
}

// Symbol identifies a terminal, nonterminal, or parameter. Symbols are
// value types and compare with ==.
type Symbol struct {
	Kind SymKind
	ID   int32
}

// BottomID is the terminal ID reserved for the empty node ⊥ that stands
// for a non-existing first-child or next-sibling in the binary encoding.
const BottomID int32 = 0

// Bottom is the ⊥ terminal symbol.
var Bottom = Symbol{Kind: Terminal, ID: BottomID}

// Param returns the parameter symbol y_i (1-based).
func Param(i int) Symbol { return Symbol{Kind: Parameter, ID: int32(i)} }

// Term returns the terminal symbol with the given table ID.
func Term(id int32) Symbol { return Symbol{Kind: Terminal, ID: id} }

// Nonterm returns the nonterminal symbol with the given ID.
func Nonterm(id int32) Symbol { return Symbol{Kind: Nonterminal, ID: id} }

// IsBottom reports whether s is the ⊥ terminal.
func (s Symbol) IsBottom() bool { return s.Kind == Terminal && s.ID == BottomID }

// SymbolTable interns terminal names and records terminal ranks.
// ID 0 is always ⊥ with rank 0 and name "⊥". XML element labels are
// registered with rank 2 (first-child, next-sibling). Digram replacement
// introduces fresh terminals with arbitrary ranks.
type SymbolTable struct {
	names []string
	ranks []int
	byKey map[symKey]int32
}

// symKey is the intern-map key: comparable as a value, so lookups never
// build a string (Intern sits on the update and compression hot paths).
type symKey struct {
	name string
	rank int
}

// NewSymbolTable returns a table containing only ⊥.
func NewSymbolTable() *SymbolTable {
	st := &SymbolTable{byKey: make(map[symKey]int32)}
	st.names = append(st.names, "⊥")
	st.ranks = append(st.ranks, 0)
	st.byKey[symKey{"⊥", 0}] = BottomID
	return st
}

// Intern returns the ID of the terminal with the given name and rank,
// creating it if necessary. Two terminals with the same name but different
// ranks are distinct symbols.
func (st *SymbolTable) Intern(name string, rank int) int32 {
	key := symKey{name, rank}
	if id, ok := st.byKey[key]; ok {
		return id
	}
	id := int32(len(st.names))
	st.names = append(st.names, name)
	st.ranks = append(st.ranks, rank)
	st.byKey[key] = id
	return id
}

// InternElement interns an XML element label (rank 2 in the binary encoding).
func (st *SymbolTable) InternElement(name string) int32 { return st.Intern(name, 2) }

// Fresh creates a new terminal that is guaranteed not to collide with any
// existing one (used for the digram pattern nonterminal-turned-terminal X).
// Its name is prefix followed by its ID, and Intern never returns it: an
// interned label of the same name and rank stays a symbol of its own.
func (st *SymbolTable) Fresh(prefix string, rank int) int32 {
	id := int32(len(st.names))
	st.names = append(st.names, prefix+strconv.Itoa(int(id)))
	st.ranks = append(st.ranks, rank)
	return id
}

// Truncate drops every terminal with ID ≥ n, so the table holds exactly
// the terminals it held when its Len was n. Compressors call it after
// converting their generated terminals into nonterminals, so that the
// one fresh terminal per replacement round does not outlive the run. No
// node may still carry a dropped terminal.
func (st *SymbolTable) Truncate(n int) {
	for id := n; id < len(st.names); id++ {
		if k := (symKey{st.names[id], st.ranks[id]}); st.byKey[k] == int32(id) {
			delete(st.byKey, k)
		}
	}
	clear(st.names[n:])
	st.names = st.names[:n]
	st.ranks = st.ranks[:n]
}

// Name returns the name of terminal id.
func (st *SymbolTable) Name(id int32) string { return st.names[id] }

// Rank returns the rank of terminal id.
func (st *SymbolTable) Rank(id int32) int { return st.ranks[id] }

// Len returns the number of interned terminals (including ⊥).
func (st *SymbolTable) Len() int { return len(st.names) }

// Clone returns a deep copy of the table. Compressors clone the table so
// the input document's table is never mutated.
func (st *SymbolTable) Clone() *SymbolTable {
	cp := &SymbolTable{
		names: append([]string(nil), st.names...),
		ranks: append([]int(nil), st.ranks...),
		byKey: make(map[symKey]int32, len(st.byKey)),
	}
	for k, v := range st.byKey {
		cp.byKey[k] = v
	}
	return cp
}
