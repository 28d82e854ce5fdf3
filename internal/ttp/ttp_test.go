package ttp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/ftdse/internal/arch"
	"repro/ftdse/internal/model"
)

func twoNodeConfig() (*arch.Architecture, Config) {
	a := arch.New(2)
	cfg := InitialConfig(a, 4, DefaultPerByte) // two 10ms slots
	return a, cfg
}

func TestInitialConfig(t *testing.T) {
	a, cfg := twoNodeConfig()
	if err := cfg.Validate(a); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := cfg.RoundLength(); got != model.Ms(20) {
		t.Errorf("RoundLength = %v, want 20ms", got)
	}
	if cfg.SlotIndex(0) != 0 || cfg.SlotIndex(1) != 1 {
		t.Error("initial config must assign Si = Ni")
	}
	if cfg.SlotIndex(9) != -1 {
		t.Error("SlotIndex of unknown node should be -1")
	}
	if cfg.SlotCapacity(0) != 4 {
		t.Errorf("SlotCapacity = %d, want 4", cfg.SlotCapacity(0))
	}
}

func TestInitialConfigDefaults(t *testing.T) {
	a := arch.New(1)
	cfg := InitialConfig(a, 0, 0)
	if cfg.PerByte != DefaultPerByte {
		t.Errorf("PerByte = %v, want default", cfg.PerByte)
	}
	if cfg.Slots[0].Length != DefaultPerByte {
		t.Errorf("slot length = %v, want 1 byte worth", cfg.Slots[0].Length)
	}
}

func TestConfigValidateRejections(t *testing.T) {
	a := arch.New(2)
	good := InitialConfig(a, 4, DefaultPerByte)

	bad := good.Clone()
	bad.PerByte = 0
	if err := bad.Validate(a); err == nil {
		t.Error("accepted zero per-byte time")
	}

	bad = good.Clone()
	bad.Slots = bad.Slots[:1]
	if err := bad.Validate(a); err == nil {
		t.Error("accepted missing slot")
	}

	bad = good.Clone()
	bad.Slots[1].Node = 0
	if err := bad.Validate(a); err == nil {
		t.Error("accepted duplicate slot ownership")
	}

	bad = good.Clone()
	bad.Slots[0].Length = 0
	if err := bad.Validate(a); err == nil {
		t.Error("accepted zero-length slot")
	}

	bad = good.Clone()
	bad.Slots[0].Node = 7
	if err := bad.Validate(a); err == nil {
		t.Error("accepted unknown slot owner")
	}
}

func TestReserveBasics(t *testing.T) {
	_, cfg := twoNodeConfig()
	bus := NewBus(cfg)

	// Node 0 owns slot 0 ([0,10) in round 0). A message ready at t=0 goes
	// out in round 0 and arrives at slot end.
	tr, err := bus.Reserve(0, 0, 2, "m1")
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if tr.Round != 0 || tr.Slot != 0 || tr.Start != 0 || tr.Arrival != model.Ms(10) {
		t.Errorf("unexpected transmission %v", tr)
	}

	// Ready just after slot start: must wait for round 1.
	tr, err = bus.Reserve(0, model.Us(1), 2, "m2")
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if tr.Round != 1 || tr.Start != model.Ms(20) {
		t.Errorf("late-ready message should use round 1, got %v", tr)
	}

	// Node 1 owns slot 1 ([10,20) in round 0).
	tr, err = bus.Reserve(1, model.Ms(5), 4, "m3")
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if tr.Round != 0 || tr.Slot != 1 || tr.Start != model.Ms(10) || tr.Arrival != model.Ms(20) {
		t.Errorf("unexpected transmission %v", tr)
	}
}

func TestReserveFramePacking(t *testing.T) {
	_, cfg := twoNodeConfig() // capacity 4 bytes per slot
	bus := NewBus(cfg)
	// Two 2-byte messages fit in the same frame.
	tr1, _ := bus.Reserve(0, 0, 2, "a")
	tr2, _ := bus.Reserve(0, 0, 2, "b")
	if tr1.Round != tr2.Round || tr1.Slot != tr2.Slot {
		t.Errorf("2+2 bytes should share a frame: %v vs %v", tr1, tr2)
	}
	// A third message overflows into the next round.
	tr3, _ := bus.Reserve(0, 0, 1, "c")
	if tr3.Round != tr1.Round+1 {
		t.Errorf("overflow message should use next round, got %v", tr3)
	}
}

func TestReserveTooLarge(t *testing.T) {
	_, cfg := twoNodeConfig()
	bus := NewBus(cfg)
	if _, err := bus.Reserve(0, 0, 5, "huge"); err == nil {
		t.Error("Reserve accepted a message larger than the slot")
	}
	if _, err := bus.Reserve(7, 0, 1, "x"); err == nil {
		t.Error("Reserve accepted a node without slot")
	}
}

func TestReserveNegativeReady(t *testing.T) {
	_, cfg := twoNodeConfig()
	bus := NewBus(cfg)
	tr, err := bus.Reserve(0, -model.Ms(5), 1, "m")
	if err != nil || tr.Start != 0 {
		t.Errorf("negative ready should clamp to 0, got %v err %v", tr, err)
	}
}

func TestMEDLOrderingAndHorizon(t *testing.T) {
	_, cfg := twoNodeConfig()
	bus := NewBus(cfg)
	bus.Reserve(1, model.Ms(15), 1, "late")
	bus.Reserve(0, 0, 1, "early")
	medl := bus.MEDL()
	if len(medl) != 2 {
		t.Fatalf("MEDL has %d entries, want 2", len(medl))
	}
	if medl[0].Label != "early" || medl[1].Label != "late" {
		t.Errorf("MEDL not time ordered: %v", medl)
	}
	if h := bus.Horizon(); h != medl[1].Arrival {
		t.Errorf("Horizon = %v, want %v", h, medl[1].Arrival)
	}
	if NewBus(cfg).Horizon() != 0 {
		t.Error("empty bus should have zero horizon")
	}
}

func TestWithSlotOrder(t *testing.T) {
	a, cfg := twoNodeConfig()
	rev := cfg.WithSlotOrder([]int{1, 0})
	if err := rev.Validate(a); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if rev.Slots[0].Node != 1 || rev.Slots[1].Node != 0 {
		t.Errorf("WithSlotOrder did not permute: %v", rev.Slots)
	}
	// original unchanged
	if cfg.Slots[0].Node != 0 {
		t.Error("WithSlotOrder mutated the receiver")
	}
}

// Property: a reserved transmission always starts at or after the ready
// time, lies inside a slot owned by the requested node, and frames never
// exceed capacity.
func TestReserveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := arch.New(2 + rng.Intn(4))
		cfg := InitialConfig(a, 4, DefaultPerByte)
		bus := NewBus(cfg)
		used := make(map[[2]int]int)
		for i := 0; i < 50; i++ {
			n := arch.NodeID(rng.Intn(a.NumNodes()))
			ready := model.Time(rng.Int63n(int64(model.Ms(200))))
			bytes := 1 + rng.Intn(4)
			tr, err := bus.Reserve(n, ready, bytes, "m")
			if err != nil {
				return false
			}
			if tr.Start < ready {
				return false
			}
			si := cfg.SlotIndex(n)
			if tr.Slot != si {
				return false
			}
			wantStart := model.Time(tr.Round) * cfg.RoundLength()
			for _, before := range cfg.Slots[:si] {
				wantStart += before.Length
			}
			if tr.Start != wantStart || tr.Arrival != wantStart+cfg.Slots[si].Length {
				return false
			}
			key := [2]int{tr.Round, tr.Slot}
			used[key] += bytes
			if used[key] > cfg.SlotCapacity(si) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
