// Package ttp models the time-triggered protocol bus of the paper's
// Section 2.1: a broadcast channel accessed in a TDMA scheme. Each node
// owns exactly one slot per TDMA round; in its slot a node sends one
// frame into which several messages can be packed. Rounds repeat
// cyclically. The message descriptor list (MEDL) assigns every message a
// slot occurrence; it is the schedule table of the TTP controllers.
package ttp

import (
	"fmt"
	"slices"
	"sort"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/model"
)

// DefaultPerByte is the default transmission time for one byte of
// payload. With 2.5 ms/byte a 4-byte slot lasts 10 ms, matching the
// figures of the paper (slots S1, S2 of 10 ms each).
const DefaultPerByte = 2500 * model.Microsecond

// Slot is one TDMA slot, owned by a node, with a fixed length.
type Slot struct {
	Node   arch.NodeID
	Length model.Time
}

// Config is a bus-access configuration: the slot sequence of one TDMA
// round plus the physical byte transmission time. The paper's step 1
// (InitialBusAccess) assigns slots in node order with the minimal
// allowed length, equal to the largest message of the application.
type Config struct {
	Slots   []Slot
	PerByte model.Time
}

// InitialConfig builds the paper's initial bus-access configuration B0:
// slot i belongs to node i (Si = Ni) and every slot length is the
// transmission time of the largest message in the application.
func InitialConfig(a *arch.Architecture, maxMessageBytes int, perByte model.Time) Config {
	if perByte <= 0 {
		perByte = DefaultPerByte
	}
	if maxMessageBytes < 1 {
		maxMessageBytes = 1
	}
	cfg := Config{PerByte: perByte}
	for _, n := range a.Nodes() {
		cfg.Slots = append(cfg.Slots, Slot{Node: n.ID, Length: model.Time(maxMessageBytes) * perByte})
	}
	return cfg
}

// Validate checks that every node of the architecture owns exactly one
// slot and that all lengths are positive.
func (c Config) Validate(a *arch.Architecture) error {
	if c.PerByte <= 0 {
		return fmt.Errorf("ttp: non-positive per-byte time %v", c.PerByte)
	}
	if len(c.Slots) != a.NumNodes() {
		return fmt.Errorf("ttp: %d slots for %d nodes", len(c.Slots), a.NumNodes())
	}
	seen := make(map[arch.NodeID]bool, len(c.Slots))
	for i, s := range c.Slots {
		if a.Node(s.Node) == nil {
			return fmt.Errorf("ttp: slot %d owned by unknown node %d", i, s.Node)
		}
		if seen[s.Node] {
			return fmt.Errorf("ttp: node %d owns more than one slot", s.Node)
		}
		seen[s.Node] = true
		if s.Length <= 0 {
			return fmt.Errorf("ttp: slot %d has non-positive length", i)
		}
	}
	return nil
}

// RoundLength returns the duration of one TDMA round.
func (c Config) RoundLength() model.Time {
	var sum model.Time
	for _, s := range c.Slots {
		sum += s.Length
	}
	return sum
}

// SlotIndex returns the position of the slot owned by node n in the
// round, or -1 when the node owns no slot.
func (c Config) SlotIndex(n arch.NodeID) int {
	for i, s := range c.Slots {
		if s.Node == n {
			return i
		}
	}
	return -1
}

// SlotCapacity returns how many payload bytes fit into slot i.
func (c Config) SlotCapacity(i int) int {
	return int(c.Slots[i].Length / c.PerByte)
}

// WithSlotOrder returns a copy of the configuration with the slot
// sequence permuted: perm[i] is the index (into c.Slots) of the slot
// placed at position i. Used by the bus-access optimization.
func (c Config) WithSlotOrder(perm []int) Config {
	if len(perm) != len(c.Slots) {
		panic("ttp: permutation length mismatch")
	}
	out := Config{PerByte: c.PerByte, Slots: make([]Slot, len(c.Slots))}
	for i, p := range perm {
		out.Slots[i] = c.Slots[p]
	}
	return out
}

// Clone returns a deep copy of the configuration.
func (c Config) Clone() Config {
	return Config{PerByte: c.PerByte, Slots: append([]Slot(nil), c.Slots...)}
}

// Transmission describes one scheduled message occurrence in the MEDL.
type Transmission struct {
	Label   string // message identity, for display and the MEDL
	Bytes   int
	Round   int        // TDMA round index
	Slot    int        // slot index within the round
	Start   model.Time // start of the slot occurrence
	Arrival model.Time // end of the slot occurrence: data available at all nodes
}

func (t Transmission) String() string {
	return fmt.Sprintf("%s@r%d/s%d[%v,%v)", t.Label, t.Round, t.Slot, t.Start, t.Arrival)
}

// frame tracks the bytes already packed into one slot occurrence.
type frame struct {
	used int
	msgs []Transmission
}

// Bus allocates messages onto slot occurrences, building the MEDL. It is
// the scheduling-time view of the bus; a fresh Bus (or one recycled with
// Reset) is used for every schedule construction.
type Bus struct {
	cfg Config
	// round and offsets (the start of each slot within a round) are
	// derived from cfg once per configuration.
	round   model.Time
	offsets []model.Time
	// frames holds the occurrence of slot s in round r at index
	// r·len(cfg.Slots)+s, up to the latest occurrence used. Reset keeps
	// the storage (and each frame's msgs backing), so a reused Bus
	// reserves messages without allocating.
	frames []frame
}

// NewBus returns an empty allocator over the given configuration.
func NewBus(cfg Config) *Bus {
	b := &Bus{}
	b.configure(cfg)
	return b
}

// Reset empties the allocator for a new schedule construction over the
// given configuration, recycling the frame storage of the previous one.
// Reservation behaviour after Reset is identical to a fresh NewBus(cfg).
//
//ftdse:hotpath
func (b *Bus) Reset(cfg Config) {
	for i := range b.frames {
		b.frames[i].used = 0
		b.frames[i].msgs = b.frames[i].msgs[:0]
	}
	b.frames = b.frames[:0]
	b.configure(cfg)
}

// configure installs cfg and derives the round length and slot offsets.
func (b *Bus) configure(cfg Config) {
	b.cfg = cfg
	if cap(b.offsets) < len(cfg.Slots) {
		b.offsets = make([]model.Time, len(cfg.Slots))
	}
	b.offsets = b.offsets[:len(cfg.Slots)]
	var off model.Time
	for i, s := range cfg.Slots {
		b.offsets[i] = off
		off += s.Length
	}
	b.round = off
}

// frame returns the occurrence of slot si in round r, extending the
// frame table as needed. Storage beyond the table's length is either
// new or was emptied by Reset.
func (b *Bus) frame(r, si int) *frame {
	i := r*len(b.cfg.Slots) + si
	if i >= len(b.frames) {
		b.frames = slices.Grow(b.frames, i+1-len(b.frames))[:i+1]
	}
	return &b.frames[i]
}

// Config returns the bus-access configuration of the allocator.
func (b *Bus) Config() Config { return b.cfg }

// Reserve schedules a message of the given size from node n into the
// earliest slot occurrence of n that starts at or after ready and still
// has capacity. It returns the resulting transmission. Reserve fails
// only when the message is larger than the slot (the initial
// configuration sizes slots for the largest message, so this indicates a
// mis-configured bus).
func (b *Bus) Reserve(n arch.NodeID, ready model.Time, bytes int, label string) (Transmission, error) {
	si := b.cfg.SlotIndex(n)
	if si < 0 {
		return Transmission{}, fmt.Errorf("ttp: node %d owns no slot", n)
	}
	capacity := b.cfg.SlotCapacity(si)
	if bytes > capacity {
		return Transmission{}, fmt.Errorf("ttp: message %q (%d bytes) exceeds capacity %d of slot %d",
			label, bytes, capacity, si)
	}
	if ready < 0 {
		ready = 0
	}
	round, offset := b.round, b.offsets[si]
	// First round whose occurrence of slot si starts at or after ready.
	r := int((ready - offset + round - 1) / round)
	if r < 0 {
		r = 0
	}
	for {
		start := model.Time(r)*round + offset
		if start >= ready {
			f := b.frame(r, si)
			if f.used+bytes <= capacity {
				tr := Transmission{
					Label:   label,
					Bytes:   bytes,
					Round:   r,
					Slot:    si,
					Start:   start,
					Arrival: start + b.cfg.Slots[si].Length,
				}
				f.used += bytes
				f.msgs = append(f.msgs, tr)
				return tr, nil
			}
		}
		r++
	}
}

// MEDL returns all scheduled transmissions ordered by time, i.e. the
// message descriptor list of the synthesized system.
func (b *Bus) MEDL() []Transmission {
	var out []Transmission
	for _, f := range b.frames {
		out = append(out, f.msgs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// Horizon returns the end of the last reserved slot occurrence, or 0
// when the bus is empty.
func (b *Bus) Horizon() model.Time {
	var h model.Time
	for _, f := range b.frames {
		for _, m := range f.msgs {
			if m.Arrival > h {
				h = m.Arrival
			}
		}
	}
	return h
}
