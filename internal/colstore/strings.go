package colstore

import "slices"

// Strings is a dictionary-coded string column: row i is Dict[Code[i]]. A
// column's Dict never repeats an entry, so within one column equal codes mean
// equal strings, and operators compare, group and break runs on codes. Dict
// may hold entries no row uses, in any order: Bytes counts them, the encoder
// drops them (it re-derives each block's dictionary from the codes).
//
// Only Dict holds pointers, and it is as small as the column's distinct
// names, so the garbage collector does not scan a column row by row and
// copying codes pays no write barrier.
type Strings struct {
	Code []uint32
	Dict []string

	// index maps Dict's entries to their codes. Append and AppendRows fill
	// it on first need; every method that replaces Dict wholesale empties it
	// (keeping its buckets for the next fill). Code that assigns Dict itself
	// does so on a new Strings value, whose index is nil.
	index map[string]uint32
	// remap is AppendRows' code translation table, reused across calls.
	remap []uint32
}

// noCode marks a remap entry not yet looked up.
const noCode = ^uint32(0)

// Len returns the number of rows.
func (s *Strings) Len() int { return len(s.Code) }

// At returns row i's string.
func (s *Strings) At(i int) string { return s.Dict[s.Code[i]] }

// Reset truncates the column to zero rows. The dictionary stays, so a column
// refilled by Append (the writer's encoder, a CSV cursor's batch) finds its
// names already coded; one grown past maxInterned entries is dropped, so
// input with unbounded distinct names cannot pin memory.
func (s *Strings) Reset() {
	s.Code = s.Code[:0]
	if len(s.Dict) > maxInterned {
		s.Dict, s.index = nil, nil
	}
}

// setDict replaces the dictionary with a copy of dict.
func (s *Strings) setDict(dict ...string) {
	s.Dict = append(s.Dict[:0], dict...)
	clear(s.index)
}

// Append appends v as the last row.
func (s *Strings) Append(v string) { s.Code = append(s.Code, s.code(v)) }

// Set overwrites row i with v.
func (s *Strings) Set(i int, v string) { s.Code[i] = s.code(v) }

// Zero sets every row to "": the dictionary becomes {""} and every code 0.
// It is how a projection drops the column.
func (s *Strings) Zero() {
	s.setDict("")
	clear(s.Code)
}

// code returns v's code, adding v to the dictionary when it is absent. The
// last row's code is tried first, since neighbouring rows mostly share a
// name, and then the index.
func (s *Strings) code(v string) uint32 {
	if n := len(s.Code); n > 0 {
		if c := s.Code[n-1]; s.Dict[c] == v {
			return c
		}
	}
	if s.index == nil {
		s.index = make(map[string]uint32, len(s.Dict))
	}
	if len(s.index) != len(s.Dict) {
		for c, d := range s.Dict {
			s.index[d] = uint32(c)
		}
	}
	if c, ok := s.index[v]; ok {
		return c
	}
	c := uint32(len(s.Dict))
	s.Dict = append(s.Dict, v)
	s.index[v] = c
	return c
}

// Remap returns, in table's storage, the code in s of every entry of
// src.Dict, adding to s the entries it lacks. A caller that moves rows from
// src into s one at a time translates their codes through it, with no lookup
// per row.
func (s *Strings) Remap(src *Strings, table []uint32) []uint32 {
	table = table[:0]
	for _, v := range src.Dict {
		table = append(table, s.code(v))
	}
	return table
}

// AppendRows appends rows [lo, hi) of src. Into an empty column it copies
// src's dictionary and codes as they are. Otherwise it translates src's codes
// through a table built once per call, which looks up each name the rows use
// once, however many rows use it.
func (s *Strings) AppendRows(src *Strings, lo, hi int) {
	if len(s.Code) == 0 {
		s.setDict(src.Dict...)
		s.Code = append(s.Code, src.Code[lo:hi]...)
		return
	}
	s.remap = slices.Grow(s.remap[:0], len(src.Dict))[:len(src.Dict)]
	for i := range s.remap {
		s.remap[i] = noCode
	}
	for _, c := range src.Code[lo:hi] {
		r := s.remap[c]
		if r == noCode {
			r = s.code(src.Dict[c])
			s.remap[c] = r
		}
		s.Code = append(s.Code, r)
	}
}

// Gather overwrites s with the rows of src that idx names, in idx order: the
// dictionary is copied and the codes gathered. s may be src itself (see
// TrajectoryBatch.Gather).
func (s *Strings) Gather(src *Strings, idx []int32) {
	if s != src {
		s.setDict(src.Dict...)
	}
	s.Code = gather(s.Code, src.Code, idx)
}

// Bytes approximates the column's resident footprint: 4 bytes per row plus
// the dictionary's string headers and bytes. It grows with the distinct
// names, not with the rows.
func (s *Strings) Bytes() int64 {
	size := int64(4*len(s.Code) + 16*len(s.Dict))
	for _, v := range s.Dict {
		size += int64(len(v))
	}
	return size
}
