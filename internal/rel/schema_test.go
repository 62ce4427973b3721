package rel

import "testing"

func testSchema() *Schema {
	return NewSchema(
		Column{Table: "t", Name: "a", Kind: KindInt},
		Column{Table: "t", Name: "b", Kind: KindString},
		Column{Table: "u", Name: "a", Kind: KindInt},
	)
}

func TestIndexOfQualified(t *testing.T) {
	s := testSchema()
	i, err := s.IndexOf("t", "a")
	if err != nil || i != 0 {
		t.Errorf("t.a: %d, %v", i, err)
	}
	i, err = s.IndexOf("u", "a")
	if err != nil || i != 2 {
		t.Errorf("u.a: %d, %v", i, err)
	}
}

func TestIndexOfUnqualified(t *testing.T) {
	s := testSchema()
	i, err := s.IndexOf("", "b")
	if err != nil || i != 1 {
		t.Errorf("b: %d, %v", i, err)
	}
	if _, err := s.IndexOf("", "a"); err == nil {
		t.Error("ambiguous reference should error")
	}
	if _, err := s.IndexOf("", "zzz"); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := s.IndexOf("t", "zzz"); err == nil {
		t.Error("unknown qualified column should error")
	}
}

// TestLookup: Lookup finds what IndexOf finds, counts up to two matches
// and allocates nothing, a miss included.
func TestLookup(t *testing.T) {
	s := testSchema()
	for _, c := range []struct {
		table, name string
		i, matches  int
	}{{"t", "a", 0, 1}, {"u", "a", 2, 1}, {"", "b", 1, 1}, {"", "a", 0, 2}, {"", "zzz", -1, 0}, {"t", "zzz", -1, 0}} {
		if i, n := s.Lookup(c.table, c.name); i != c.i || n != c.matches {
			t.Errorf("%s.%s: position %d, %d matches; want %d, %d", c.table, c.name, i, n, c.i, c.matches)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { s.Lookup("t", "zzz") }); allocs != 0 {
		t.Errorf("a missed lookup allocates %v times", allocs)
	}
}

func TestMustIndexOfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	testSchema().MustIndexOf("", "nope")
}

func TestConcatAndProject(t *testing.T) {
	s := testSchema()
	o := NewSchema(Column{Table: "v", Name: "c", Kind: KindFloat})
	c := s.Concat(o)
	if c.Len() != 4 || c.Columns[3].QualifiedName() != "v.c" {
		t.Errorf("concat: %s", c)
	}
	p := c.Project([]int{3, 0})
	if p.Len() != 2 || p.Columns[0].Name != "c" || p.Columns[1].Name != "a" {
		t.Errorf("project: %s", p)
	}
}

func TestRowCloneConcat(t *testing.T) {
	r := Row{Int(1), Int(2)}
	c := r.Clone()
	c[0] = Int(9)
	if r[0].AsInt() != 1 {
		t.Error("clone aliases original")
	}
	j := r.Concat(Row{Int(3)})
	if len(j) != 3 || j[2].AsInt() != 3 {
		t.Errorf("concat: %v", j)
	}
	if j.String() != "(1, 2, 3)" {
		t.Errorf("row string: %s", j)
	}
}
