package xmlschema

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

// randomTreeFrom builds a deterministic pseudo-random tree from a byte
// seed slice: each byte chooses the parent of the next node.
func randomTreeFrom(seed []byte) *Element {
	root := NewElement("n0")
	nodes := []*Element{root}
	for i, b := range seed {
		if len(nodes) >= 30 {
			break
		}
		parent := nodes[int(b)%len(nodes)]
		child := NewElement(fmt.Sprintf("n%d", i+1))
		if b%3 == 0 {
			child.Type = "string"
		}
		parent.Add(child)
		nodes = append(nodes, child)
	}
	return root
}

// Property: every generated tree survives schema construction, XML
// round trip, and cloning with full structural equality.
func TestSchemaRoundTripProperty(t *testing.T) {
	f := func(seed []byte) bool {
		s, err := NewSchema("prop", randomTreeFrom(seed))
		if err != nil {
			return false
		}
		// Clone equality.
		if !Equal(s.Root(), s.Clone().Root()) {
			return false
		}
		// XML round trip equality.
		var buf bytes.Buffer
		if err := WriteSchema(&buf, s); err != nil {
			return false
		}
		back, err := ReadSchema(&buf)
		if err != nil {
			return false
		}
		return Equal(s.Root(), back.Root())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: pre-order IDs are dense, parents precede children, and
// Depth is consistent with parent chains.
func TestPreorderInvariantsProperty(t *testing.T) {
	f := func(seed []byte) bool {
		s, err := NewSchema("prop", randomTreeFrom(seed))
		if err != nil {
			return false
		}
		for i := 0; i < s.Len(); i++ {
			e := s.ByID(i)
			if e == nil || e.ID() != i {
				return false
			}
			if p := e.Parent(); p != nil {
				if p.ID() >= i {
					return false // pre-order: parent before child
				}
				if e.Depth() != p.Depth()+1 {
					return false
				}
			} else if i != 0 || e.Depth() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: TreeDistance is a metric on each tree: symmetric, zero iff
// same node, triangle inequality.
func TestTreeDistanceMetricProperty(t *testing.T) {
	f := func(seed []byte, i1, i2, i3 uint8) bool {
		s, err := NewSchema("prop", randomTreeFrom(seed))
		if err != nil {
			return false
		}
		a := s.ByID(int(i1) % s.Len())
		b := s.ByID(int(i2) % s.Len())
		c := s.ByID(int(i3) % s.Len())
		dab := TreeDistance(a, b)
		dba := TreeDistance(b, a)
		if dab != dba || dab < 0 {
			return false
		}
		if (dab == 0) != (a == b) {
			return false
		}
		return TreeDistance(a, c) <= dab+TreeDistance(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the precomputed layout agrees with the element tree —
// depth[id] is Depth(), and [id, end[id]) is exactly the pre-order ID
// range of id's subtree (every ID in it has id as an ancestor, or is
// id itself; every ID outside it does not).
func TestLayoutProperty(t *testing.T) {
	f := func(seed []byte) bool {
		s, err := NewSchema("prop", randomTreeFrom(seed))
		if err != nil {
			return false
		}
		depth, end := s.Layout()
		if len(depth) != s.Len() || len(end) != s.Len() {
			return false
		}
		for _, e := range s.Elements() {
			id := e.ID()
			if int(depth[id]) != e.Depth() || int(end[id]) != id+e.Size() {
				return false
			}
			for _, o := range s.Elements() {
				inside := o.ID() >= id && o.ID() < int(end[id])
				if inside != (o == e || o.HasAncestor(e)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
