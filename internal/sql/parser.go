package sql

import (
	"fmt"
	"strconv"
	"strings"

	"reopt/internal/catalog"
	"reopt/internal/rel"
)

// Parse parses the SPJ dialect and resolves names against the catalog.
// Every column reference is validated; unqualified references are
// resolved when unambiguous.
func Parse(src string, cat *catalog.Catalog) (*Query, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, cat: cat}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse for statically known query text (tests, examples).
func MustParse(src string, cat *catalog.Catalog) *Query {
	q, err := Parse(src, cat)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks []token
	i    int
	cat  *catalog.Catalog
	q    *Query
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) expectKeyword(kw string) error {
	t := p.advance()
	if t.kind != tokKeyword || t.text != kw {
		return fmt.Errorf("sql: expected %s, found %s", kw, t)
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	t := p.advance()
	if t.kind != tokSymbol || t.text != sym {
		return fmt.Errorf("sql: expected %q, found %s", sym, t)
	}
	return nil
}

func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) atSymbol(sym string) bool {
	t := p.peek()
	return t.kind == tokSymbol && t.text == sym
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	p.q = &Query{}

	// Projection list: *, COUNT(*), or column refs. Resolution of the
	// projection is deferred until after FROM is parsed.
	var rawProj []ColRef
	star := false
	if p.atSymbol("*") {
		p.advance()
		star = true
	} else if p.atKeyword("COUNT") {
		p.advance()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("*"); err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		p.q.CountStar = true
	} else {
		for {
			c, err := p.parseColRefRaw()
			if err != nil {
				return nil, err
			}
			rawProj = append(rawProj, c)
			if !p.atSymbol(",") {
				break
			}
			p.advance()
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if err := p.parseFromList(); err != nil {
		return nil, err
	}

	if p.atKeyword("WHERE") {
		p.advance()
		for {
			if err := p.parsePredicate(); err != nil {
				return nil, err
			}
			if !p.atKeyword("AND") {
				break
			}
			p.advance()
		}
	}
	if p.atKeyword("GROUP") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRefRaw()
			if err != nil {
				return nil, err
			}
			rc, err := p.resolveCol(c)
			if err != nil {
				return nil, err
			}
			p.q.GroupBy = append(p.q.GroupBy, rc)
			if !p.atSymbol(",") {
				break
			}
			p.advance()
		}
	}
	if p.atKeyword("ORDER") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRefRaw()
			if err != nil {
				return nil, err
			}
			rc, err := p.resolveCol(c)
			if err != nil {
				return nil, err
			}
			key := OrderKey{Col: rc}
			if p.atKeyword("DESC") {
				p.advance()
				key.Desc = true
			} else if p.atKeyword("ASC") {
				p.advance()
			}
			p.q.OrderBy = append(p.q.OrderBy, key)
			if !p.atSymbol(",") {
				break
			}
			p.advance()
		}
	}
	if p.atKeyword("LIMIT") {
		p.advance()
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if v.Kind() != rel.KindInt || v.AsInt() < 1 {
			return nil, fmt.Errorf("sql: LIMIT requires a positive integer")
		}
		p.q.Limit = int(v.AsInt())
	}
	if p.atSymbol(";") {
		p.advance()
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, fmt.Errorf("sql: unexpected trailing input %s", t)
	}

	if !star && !p.q.CountStar {
		for _, c := range rawProj {
			rc, err := p.resolveCol(c)
			if err != nil {
				return nil, err
			}
			p.q.Projection = append(p.q.Projection, rc)
		}
	}
	return p.q, nil
}

func (p *parser) parseFromList() error {
	seen := map[string]bool{}
	for {
		t := p.advance()
		if t.kind != tokIdent {
			return fmt.Errorf("sql: expected table name, found %s", t)
		}
		ref := TableRef{Name: t.text, Alias: t.text}
		if p.atKeyword("AS") {
			p.advance()
			a := p.advance()
			if a.kind != tokIdent {
				return fmt.Errorf("sql: expected alias after AS, found %s", a)
			}
			ref.Alias = a.text
		} else if p.peek().kind == tokIdent {
			// Implicit alias: FROM lineitem l
			ref.Alias = p.advance().text
		}
		if p.cat != nil {
			if _, err := p.cat.Table(ref.Name); err != nil {
				return err
			}
		}
		if seen[ref.Alias] {
			return fmt.Errorf("sql: duplicate table alias %q", ref.Alias)
		}
		seen[ref.Alias] = true
		p.q.Tables = append(p.q.Tables, ref)
		if !p.atSymbol(",") {
			return nil
		}
		p.advance()
	}
}

// parseColRefRaw parses [table.]column without resolving it.
func (p *parser) parseColRefRaw() (ColRef, error) {
	t := p.advance()
	if t.kind != tokIdent {
		return ColRef{}, fmt.Errorf("sql: expected column reference, found %s", t)
	}
	if p.atSymbol(".") {
		p.advance()
		c := p.advance()
		if c.kind != tokIdent {
			return ColRef{}, fmt.Errorf("sql: expected column name after %q., found %s", t.text, c)
		}
		return ColRef{Table: t.text, Column: c.text}, nil
	}
	return ColRef{Column: t.text}, nil
}

// resolveCol validates a reference against the FROM list and catalog and
// fills in the table alias for unqualified names.
func (p *parser) resolveCol(c ColRef) (ColRef, error) {
	if c.Table != "" {
		ref, ok := p.q.TableByAlias(c.Table)
		if !ok {
			return ColRef{}, fmt.Errorf("sql: unknown table alias %q", c.Table)
		}
		if p.cat != nil {
			t, err := p.cat.Table(ref.Name)
			if err != nil {
				return ColRef{}, err
			}
			if _, n := t.Schema().Lookup(ref.Name, c.Column); n != 1 {
				return ColRef{}, fmt.Errorf("sql: table %q has no column %q", ref.Name, c.Column)
			}
		}
		return c, nil
	}
	// Unqualified: search all FROM tables.
	if p.cat == nil {
		return ColRef{}, fmt.Errorf("sql: unqualified column %q requires a catalog", c.Column)
	}
	var match ColRef
	found := 0
	for _, ref := range p.q.Tables {
		t, err := p.cat.Table(ref.Name)
		if err != nil {
			return ColRef{}, err
		}
		if _, n := t.Schema().Lookup(ref.Name, c.Column); n == 1 {
			match = ColRef{Table: ref.Alias, Column: c.Column}
			found++
		}
	}
	switch found {
	case 0:
		return ColRef{}, fmt.Errorf("sql: unknown column %q", c.Column)
	case 1:
		return match, nil
	default:
		return ColRef{}, fmt.Errorf("sql: ambiguous column %q", c.Column)
	}
}

func (p *parser) parsePredicate() error {
	left, err := p.parseColRefRaw()
	if err != nil {
		return err
	}
	lc, err := p.resolveCol(left)
	if err != nil {
		return err
	}

	if p.atKeyword("BETWEEN") {
		p.advance()
		lo, err := p.parseLiteral()
		if err != nil {
			return err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return err
		}
		p.q.Selections = append(p.q.Selections, Selection{Col: lc, Op: OpBetween, Value: lo, Value2: hi})
		return nil
	}

	opTok := p.advance()
	if opTok.kind != tokSymbol {
		return fmt.Errorf("sql: expected comparison operator, found %s", opTok)
	}
	var op CompareOp
	switch opTok.text {
	case "=":
		op = OpEq
	case "<>", "!=":
		op = OpNe
	case "<":
		op = OpLt
	case "<=":
		op = OpLe
	case ">":
		op = OpGt
	case ">=":
		op = OpGe
	default:
		return fmt.Errorf("sql: unsupported operator %q", opTok.text)
	}

	// Right side: literal (selection) or column (join).
	t := p.peek()
	if t.kind == tokIdent {
		right, err := p.parseColRefRaw()
		if err != nil {
			return err
		}
		rc, err := p.resolveCol(right)
		if err != nil {
			return err
		}
		if op != OpEq {
			return fmt.Errorf("sql: only equi-joins are supported, found %q between columns", opTok.text)
		}
		if lc.Table == rc.Table {
			return fmt.Errorf("sql: same-table column equality %s = %s is not supported", lc, rc)
		}
		p.q.Joins = append(p.q.Joins, JoinPred{Left: lc, Right: rc}.Canonical())
		return nil
	}
	v, err := p.parseLiteral()
	if err != nil {
		return err
	}
	p.q.Selections = append(p.q.Selections, Selection{Col: lc, Op: op, Value: v})
	return nil
}

func (p *parser) parseLiteral() (rel.Value, error) {
	t := p.advance()
	switch t.kind {
	case tokNumber:
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return rel.Null, fmt.Errorf("sql: bad number %q: %v", t.text, err)
			}
			return rel.Float(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return rel.Null, fmt.Errorf("sql: bad number %q: %v", t.text, err)
		}
		return rel.Int(n), nil
	case tokString:
		return rel.String_(t.text), nil
	default:
		return rel.Null, fmt.Errorf("sql: expected literal, found %s", t)
	}
}
