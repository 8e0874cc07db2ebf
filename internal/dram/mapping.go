// Package dram models LPDDR-style DRAM: multiple channels of banked
// DRAM devices with open-row state, configurable address mappings and
// pluggable request schedulers. It produces the row-buffer locality and
// per-source bandwidth statistics that the paper's Case Study I
// (Figures 9-14) measures.
package dram

// Field names one component of a DRAM address.
type Field uint8

// Address fields, from the scheduler's point of view.
const (
	FieldChannel Field = iota
	FieldColumn
	FieldBank
	FieldRank
	FieldRow
)

// Loc is a fully decoded DRAM location.
type Loc struct {
	Channel, Rank, Bank int
	Row                 uint64
	Column              int
}

// Mapping decodes physical addresses into DRAM locations. Order lists
// fields from least-significant to most-significant, above the intra-burst
// offset bits. The paper's Table 4 mappings are provided as constructors.
type Mapping struct {
	Order       []Field // LSB-first
	ColumnBytes int     // burst granularity (one column step)
	Channels    int
	Ranks       int
	Banks       int
	Columns     int // columns per row (row size = Columns*ColumnBytes)
}

// Geometry bundles the sizes shared by mappings and the controller.
type Geometry struct {
	Channels    int
	Ranks       int
	Banks       int
	Columns     int
	ColumnBytes int
}

// MappingPageStriped returns the baseline "Row:Rank:Bank:Column:Channel"
// mapping of Table 4: channel interleaving at burst granularity, with
// consecutive addresses within a channel walking the columns of one row
// (maximizing row-buffer locality for sequential streams).
func MappingPageStriped(g Geometry) Mapping {
	return Mapping{
		Order:       []Field{FieldChannel, FieldColumn, FieldBank, FieldRank, FieldRow},
		ColumnBytes: g.ColumnBytes,
		Channels:    g.Channels, Ranks: g.Ranks, Banks: g.Banks, Columns: g.Columns,
	}
}

// MappingLineStriped returns the HMC IP-channel "Row:Column:Rank:Bank:
// Channel" mapping of Table 4: consecutive bursts go to different banks
// (maximizing bank-level parallelism for large sequential buffers).
func MappingLineStriped(g Geometry) Mapping {
	return Mapping{
		Order:       []Field{FieldChannel, FieldBank, FieldRank, FieldColumn, FieldRow},
		ColumnBytes: g.ColumnBytes,
		Channels:    g.Channels, Ranks: g.Ranks, Banks: g.Banks, Columns: g.Columns,
	}
}

func (m Mapping) size(f Field) uint64 {
	switch f {
	case FieldChannel:
		return uint64(m.Channels)
	case FieldColumn:
		return uint64(m.Columns)
	case FieldBank:
		return uint64(m.Banks)
	case FieldRank:
		return uint64(m.Ranks)
	}
	return 0 // row: unbounded
}

// Decode maps a physical address to its DRAM location.
func (m Mapping) Decode(addr uint64) Loc {
	u := addr / uint64(m.ColumnBytes)
	var loc Loc
	for _, f := range m.Order {
		n := m.size(f)
		var v uint64
		if n == 0 { // row takes the remaining bits
			v = u
			u = 0
		} else {
			v = u % n
			u /= n
		}
		switch f {
		case FieldChannel:
			loc.Channel = int(v)
		case FieldColumn:
			loc.Column = int(v)
		case FieldBank:
			loc.Bank = int(v)
		case FieldRank:
			loc.Rank = int(v)
		case FieldRow:
			loc.Row = v
		}
	}
	return loc
}

// Encode is the inverse of Decode (used by tests to prove bijectivity).
func (m Mapping) Encode(loc Loc) uint64 {
	var u uint64
	// Walk the order MSB-first, accumulating.
	for i := len(m.Order) - 1; i >= 0; i-- {
		f := m.Order[i]
		n := m.size(f)
		var v uint64
		switch f {
		case FieldChannel:
			v = uint64(loc.Channel)
		case FieldColumn:
			v = uint64(loc.Column)
		case FieldBank:
			v = uint64(loc.Bank)
		case FieldRank:
			v = uint64(loc.Rank)
		case FieldRow:
			v = loc.Row
		}
		if n == 0 {
			u = v
		} else {
			u = u*n + v
		}
	}
	return u * uint64(m.ColumnBytes)
}
