package optimizer

import (
	"reopt/internal/catalog"
	"reopt/internal/sql"
	"reopt/internal/stats"
	"reopt/internal/storage"
)

// Profile customizes the estimation behaviour of the optimizer, emulating
// how different database systems estimate the same quantities. All
// profiles share the attribute-value-independence assumption when
// combining selections with joins — the paper's observation is that
// PostgreSQL *and* two commercial systems all fail the OTT for this
// shared reason (§5.3, Figures 12–13).
type Profile struct {
	// Name identifies the profile in reports.
	Name string
	// JoinSel overrides equi-join selectivity estimation; nil uses the
	// PostgreSQL-style MCV-join/1-max(ndv) rule.
	JoinSel func(left, right *stats.ColumnStats) float64
	// LeafRows, when non-nil, may override the cardinality estimate for
	// a filtered base table (returning ok=false falls back to the
	// default estimate). System B uses this to emulate leaf-table
	// sampling ("pilot run"-style base estimates).
	LeafRows func(cat *catalog.Catalog, table, alias string, filters []sql.Selection) (float64, bool)
}

// PostgresProfile is the default estimation behaviour described in
// §4.2.1 of the paper.
func PostgresProfile() *Profile { return &Profile{Name: "postgres"} }

// SystemAProfile emulates "commercial system A": the default selection
// rule (MCV frequencies, uniform elsewhere), but the plain System-R join
// rule 1/max(ndv) with no MCV-list join refinement. It still combines
// predicates under AVI, so OTT queries defeat it the same way (Figure
// 12).
func SystemAProfile() *Profile {
	return &Profile{
		Name: "systemA",
		JoinSel: func(left, right *stats.ColumnStats) float64 {
			if left == nil || right == nil {
				return stats.DefaultJoinSel
			}
			nd := left.NumDistinct
			if right.NumDistinct > nd {
				nd = right.NumDistinct
			}
			if nd <= 0 {
				return stats.DefaultJoinSel
			}
			return 1 / float64(nd)
		},
	}
}

// SystemBProfile emulates "commercial system B": base-table selectivities
// come from scanning the table sample (when samples exist), while join
// selectivities still use histogram statistics under AVI. Accurate leaves
// cannot repair the correlated-join blindness, so OTT defeats it too
// (Figure 13).
func SystemBProfile() *Profile {
	return &Profile{
		Name: "systemB",
		LeafRows: func(cat *catalog.Catalog, table, alias string, filters []sql.Selection) (float64, bool) {
			if !cat.HasSamples() {
				return 0, false
			}
			s, err := cat.Sample(table)
			if err != nil || s.NumRows() == 0 {
				return 0, false
			}
			base, err := cat.Table(table)
			if err != nil {
				return 0, false
			}
			cols := make([]*storage.ColData, len(filters))
			for i, f := range filters {
				pos, err := s.Schema().IndexOf("", f.Col.Column)
				if err != nil {
					return 0, false
				}
				cols[i] = s.ColData().Col(pos)
			}
			matched := 0
		rows:
			for r := range s.NumRows() {
				for i, f := range filters {
					if !sql.EvalSelection(cols[i].Value(r), f) {
						continue rows
					}
				}
				matched++
			}
			scale := float64(base.NumRows()) / float64(s.NumRows())
			return float64(matched) * scale, true
		},
	}
}
