package core

import (
	"testing"
	"testing/quick"
)

func TestNewClassifierSelection(t *testing.T) {
	for _, tc := range []struct {
		k, slots, tracked int
	}{
		{0, 65, 64},  // k=0 selects the Complete classifier
		{64, 65, 64}, // so does k=cores
		{3, 4, 0},    // Limited-3 starts tracking nobody
	} {
		c := NewClassifier(64, tc.k)
		if n := len(c.slots); n != tc.slots || Slots(64, tc.k) != n {
			t.Fatalf("k=%d: %d slots, Slots says %d; want %d", tc.k, n, Slots(64, tc.k), tc.slots)
		}
		if n := len(AppendTracked(nil, c)); n != tc.tracked {
			t.Fatalf("k=%d: tracks %d cores initially, want %d", tc.k, n, tc.tracked)
		}
	}
}

func TestCompleteInitialModePrivate(t *testing.T) {
	c := NewClassifier(8, 0)
	for i := 0; i < 8; i++ {
		if c.ModeOf(i) != ModePrivate {
			t.Fatalf("core %d initial mode %v", i, c.ModeOf(i))
		}
	}
	if n := len(AppendTracked(nil, c)); n != 8 {
		t.Fatalf("tracked %d cores, want 8", n)
	}
}

func TestCompleteLookupIsStable(t *testing.T) {
	c := NewClassifier(4, 0)
	st := Lookup(c, 2)
	st.Mode = ModeRemote
	st.RemoteUtil = 7
	again := Lookup(c, 2)
	if again.Mode != ModeRemote || again.RemoteUtil != 7 {
		t.Fatal("Complete classifier lost state")
	}
}

func TestLimitedFreeEntryStartsPrivate(t *testing.T) {
	c := NewClassifier(64, 3)
	st := Lookup(c, 10)
	if st.Mode != ModePrivate {
		t.Fatal("fresh entry must start private")
	}
	st.Mode = ModeRemote
	if c.ModeOf(10) != ModeRemote {
		t.Fatal("tracked state not visible via ModeOf")
	}
}

func TestLimitedMajorityVoteForUntracked(t *testing.T) {
	c := NewClassifier(64, 3)
	// Fill the three entries with remote, active sharers.
	for i := 0; i < 3; i++ {
		st := Lookup(c, i)
		st.Mode = ModeRemote
		st.Active = true
	}
	// Untracked core with no replacement candidate: majority vote = remote.
	if c.ModeOf(50) != ModeRemote {
		t.Fatal("untracked mode must be the majority vote")
	}
	st := Lookup(c, 50)
	if st.Mode != ModeRemote {
		t.Fatal("ephemeral state must carry the majority mode")
	}
	// Mutations to the ephemeral state are dropped.
	st.RemoteUtil = 99
	if Lookup(c, 50).RemoteUtil != 0 {
		t.Fatal("untracked counters must not persist")
	}
	// The tracked list is unchanged.
	tracked := map[int]bool{}
	for _, tr := range AppendTracked(nil, c) {
		tracked[tr.Core] = true
	}
	if len(tracked) != 3 || !tracked[0] || !tracked[1] || !tracked[2] {
		t.Fatalf("tracked set changed: %v", tracked)
	}
}

func TestLimitedReplacementOfInactiveSharer(t *testing.T) {
	c := NewClassifier(64, 3)
	for i := 0; i < 3; i++ {
		st := Lookup(c, i)
		st.Mode = ModeRemote
		st.Active = true
	}
	// Core 1 becomes inactive (e.g., invalidated): replaceable.
	Lookup(c, 1).Active = false
	st := Lookup(c, 40)
	if st.Mode != ModeRemote {
		t.Fatal("replacement must start in majority mode")
	}
	tracked := map[int]bool{}
	for _, tr := range AppendTracked(nil, c) {
		tracked[tr.Core] = true
	}
	if !tracked[40] || tracked[1] {
		t.Fatalf("replacement did not swap cores: %v", tracked)
	}
}

func TestLimitedMajorityTieFallsBackPrivate(t *testing.T) {
	c := NewClassifier(64, 2)
	a := Lookup(c, 0)
	a.Mode = ModePrivate
	a.Active = true
	b := Lookup(c, 1)
	b.Mode = ModeRemote
	b.Active = true
	if c.ModeOf(9) != ModePrivate {
		t.Fatal("tie must fall back to the initial private mode")
	}
}

func TestStorageBitsMatchesPaperArithmetic(t *testing.T) {
	p := DefaultParams() // PCT 4, RATmax 16, 2 levels
	// Section 3.6: Limited3 tracks 3 sharers, 12 bits each = 36 bits.
	if got := StorageBits(64, 3, p); got != 36 {
		t.Fatalf("Limited3 bits = %d, want 36", got)
	}
	// Complete: 64 cores x 6 bits = 384 bits.
	if got := StorageBits(64, 0, p); got != 384 {
		t.Fatalf("Complete bits = %d, want 384", got)
	}
}

// Property: Limited-k never tracks more than k cores, ModeOf always returns
// a valid mode, and tracked Lookups are stable pointers.
func TestLimitedInvariants(t *testing.T) {
	f := func(ops []uint8, k uint8) bool {
		kk := int(k%6) + 1
		c := NewClassifier(32, kk)
		for _, op := range ops {
			coreID := int(op % 32)
			st := Lookup(c, coreID)
			// Toggle activity/mode pseudo-randomly.
			st.Active = op&0x40 != 0
			if op&0x80 != 0 {
				st.Mode = ModeRemote
			}
			if n := len(AppendTracked(nil, c)); n > kk {
				return false
			}
			if m := c.ModeOf(coreID); m != ModePrivate && m != ModeRemote {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: RATThreshold is monotone in level and bounded by [PCT, RATMax].
func TestRATThresholdProperties(t *testing.T) {
	f := func(pct, ratMax, levels uint8) bool {
		p := Params{
			PCT:        int(pct%16) + 1,
			NRATLevels: int(levels%8) + 1,
		}
		p.RATMax = p.PCT + int(ratMax%32)
		prev := 0
		for lvl := uint8(0); lvl <= p.MaxRATLevel(); lvl++ {
			thr := p.RATThreshold(lvl)
			if thr < p.PCT || thr > p.RATMax || thr < prev {
				return false
			}
			prev = thr
		}
		if p.NRATLevels > 1 && p.RATThreshold(p.MaxRATLevel()) != p.RATMax {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// listModel is the Limited-k policy of Section 3.4 written as plainly as
// possible — parallel id and state lists, every lookup a scan — as an
// oracle for Classifier's slot layout and own-slot shortcut.
type listModel struct {
	ids     []int
	st      []CoreState
	scratch CoreState
}

func (m *listModel) majority() Mode {
	private, remote := 0, 0
	for i, id := range m.ids {
		if id >= 0 && m.st[i].Mode == ModePrivate {
			private++
		} else if id >= 0 {
			remote++
		}
	}
	if remote > private {
		return ModeRemote
	}
	return ModePrivate
}

func (m *listModel) lookup(core int) *CoreState {
	for i, id := range m.ids {
		if id == core {
			return &m.st[i]
		}
	}
	for i, id := range m.ids {
		if id < 0 {
			m.ids[i], m.st[i] = core, CoreState{}
			return &m.st[i]
		}
	}
	for i := range m.ids {
		if !m.st[i].Active {
			mode := m.majority()
			m.ids[i], m.st[i] = core, CoreState{Mode: mode}
			return &m.st[i]
		}
	}
	m.scratch = CoreState{Mode: m.majority()}
	return &m.scratch
}

// Property: the Limited-k classifier makes the list model's every
// decision — which core each slot tracks, with what state, and what an
// untracked core sees — through random lookups, writes, deactivations and
// rebinds to fresh storage.
func TestLimitedMatchesListModel(t *testing.T) {
	f := func(ops []uint16, k uint8) bool {
		const cores = 8
		kk := int(k%(cores-1)) + 1
		c := NewClassifier(cores, kk)
		m := &listModel{ids: make([]int, kk), st: make([]CoreState, kk)}
		for i := range m.ids {
			m.ids[i] = -1
		}
		for _, op := range ops {
			id := int(op % cores)
			switch (op >> 3) % 8 {
			case 0:
				c.DeactivateRemoteExcept(id)
				for i := range m.ids {
					if m.ids[i] >= 0 && m.ids[i] != id && m.st[i].Mode == ModeRemote {
						m.st[i].RemoteUtil, m.st[i].Active = 0, false
					}
				}
			case 1:
				c.Rebind(make([]Slot, len(c.slots)))
			default:
				got, want := Lookup(c, id), m.lookup(id)
				if *got != *want {
					return false
				}
				mode := Mode(op >> 6 & 1)
				active := op>>7&1 == 1
				got.Mode, got.Active, got.RemoteUtil = mode, active, op>>8
				want.Mode, want.Active, want.RemoteUtil = mode, active, op>>8
			}
			tracked := AppendTracked(nil, c)
			n := 0
			for i, mid := range m.ids {
				if mid < 0 {
					continue
				}
				if n >= len(tracked) || tracked[n] != (Tracked{Core: mid, CoreState: m.st[i]}) {
					return false
				}
				n++
			}
			if n != len(tracked) || c.ModeOf(id) != modeOf(m, id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func modeOf(m *listModel, core int) Mode {
	for i, id := range m.ids {
		if id == core {
			return m.st[i].Mode
		}
	}
	return m.majority()
}
