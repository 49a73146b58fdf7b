package cell

import "sort"

// Cells returns every cell of the library sorted by name, read off the
// shape index Pick uses, so a cell Pick cannot reach is missing here too.
func (l *Library) Cells() []*Cell {
	var out []*Cell
	for k := range l.byShape {
		for i := range l.byShape[k] {
			for _, c := range l.byShape[k][i] {
				if c != nil {
					out = append(out, c)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Cell returns the named cell.
func (l *Library) Cell(name string) (*Cell, bool) {
	for _, c := range l.Cells() {
		if c.Name == name {
			return c, true
		}
	}
	return nil, false
}

// MustCell returns the named cell or panics.
func (l *Library) MustCell(name string) *Cell {
	c, ok := l.Cell(name)
	if !ok {
		panic("cell: no such cell " + name)
	}
	return c
}
