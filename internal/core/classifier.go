package core

// Classifier is one directory entry's locality classifier: the
// per-(line, core) state of Figures 6 and 7 for the cores it tracks. It is
// a view of backing storage, like coherence.SharerSet, so the simulator's
// directory keeps every entry's classifier in one arena next to the sharer
// identities.
//
// The storage is k slots plus one scratch slot (Slots). The Complete
// classifier (Figure 6) is the case k = cores: slot i always holds core i.
// The Limited-k classifier (Figure 7) fills free slots in order, replaces
// an inactive core when all k are taken and classifies untracked cores by
// majority vote (Section 3.4). The scratch slot is what Lookup returns
// when Limited-k has no replacement candidate; its writes are thrown away,
// exactly as the hardware would drop them.
type Classifier struct {
	slots []Slot // k tracked slots, then the scratch slot
}

// Slot is one classifier entry as the directory stores it: the tracked
// core (-1 for a free entry) and its classification state.
type Slot struct {
	Core int16
	CoreState
}

// Slots returns the storage a classifier for cores cores occupies, in
// slots: limitedK <= 0 or >= cores selects the Complete classifier (cores
// tracked slots), otherwise the Limited-k classifier (limitedK), plus the
// scratch slot either way.
func Slots(cores, limitedK int) int {
	if limitedK <= 0 || limitedK >= cores {
		return cores + 1
	}
	return limitedK + 1
}

// NewClassifier allocates a pristine classifier for cores cores:
// limitedK <= 0 (or >= cores) selects the Complete classifier, otherwise
// the Limited-k classifier with k = limitedK entries.
func NewClassifier(cores, limitedK int) *Classifier {
	c := NewClassifierBacked(cores, make([]Slot, Slots(cores, limitedK)))
	return &c
}

// NewClassifierBacked returns a pristine classifier for cores cores over
// backing, whose length is its Slots: every core private (Figure 4,
// "Initial"), the Complete classifier holding each core in its own slot
// and Limited-k tracking none.
func NewClassifierBacked(cores int, backing []Slot) Classifier {
	k := len(backing) - 1
	for i := range backing {
		backing[i] = Slot{Core: -1}
	}
	if k == cores {
		for i := 0; i < k; i++ {
			backing[i].Core = int16(i)
		}
	}
	return Classifier{slots: backing}
}

// Rebind moves the classifier's state into backing, which must be at least
// as long as its current storage. The directory uses it when a table grow
// or copy places the entry in another arena segment.
func (c *Classifier) Rebind(backing []Slot) {
	n := copy(backing, c.slots)
	c.slots = backing[:n]
}

// Lookup returns mutable state for core, claiming or replacing a tracking
// entry as the policy allows. When Limited-k cannot track the core the
// returned state is the scratch slot, carrying the majority mode: writes
// to it are discarded by the next such lookup. A core tracked in its own
// slot — always, for Complete — is found without a scan.
func Lookup(c *Classifier, core int) *CoreState {
	if core < len(c.slots)-1 {
		if s := &c.slots[core]; int(s.Core) == core {
			return &s.CoreState
		}
	}
	return c.claim(core)
}

// claim is Lookup's Limited-k path (Section 3.4): the core's tracked
// slot, else the first free slot (starting private, Section 3.2), else
// the first inactive core's slot (starting in the majority mode), else the
// scratch slot.
func (c *Classifier) claim(core int) *CoreState {
	tracked, scratch := c.split()
	free := -1
	for i := range tracked {
		if id := tracked[i].Core; int(id) == core {
			return &tracked[i].CoreState
		} else if id < 0 && free < 0 {
			free = i
		}
	}
	if free >= 0 {
		tracked[free] = Slot{Core: int16(core), CoreState: CoreState{Mode: ModePrivate}}
		return &tracked[free].CoreState
	}
	for i := range tracked {
		if !tracked[i].Active {
			tracked[i] = Slot{Core: int16(core), CoreState: CoreState{Mode: c.majority()}}
			return &tracked[i].CoreState
		}
	}
	// No candidate: the list is unchanged and the requester operates with
	// the majority mode; its counters are not retained.
	*scratch = Slot{Core: -1, CoreState: CoreState{Mode: c.majority()}}
	return &scratch.CoreState
}

// split returns the tracked slots and the scratch slot.
func (c *Classifier) split() ([]Slot, *Slot) {
	k := len(c.slots) - 1
	return c.slots[:k], &c.slots[k]
}

// majority returns the majority vote of tracked modes. Ties and an empty
// list fall back to private, the protocol's initial mode.
func (c *Classifier) majority() Mode {
	tracked, _ := c.split()
	private, remote := 0, 0
	for i := range tracked {
		switch {
		case tracked[i].Core < 0:
		case tracked[i].Mode == ModePrivate:
			private++
		default:
			remote++
		}
	}
	if remote > private {
		return ModeRemote
	}
	return ModePrivate
}

// ModeOf returns the core's current classification without claiming an
// entry: its tracked mode, or the majority vote when untracked.
func (c *Classifier) ModeOf(core int) Mode {
	tracked, _ := c.split()
	for i := range tracked {
		if int(tracked[i].Core) == core {
			return tracked[i].Mode
		}
	}
	return c.majority()
}

// DeactivateRemoteExcept resets the remote utilization and clears the
// activity bit of every tracked remote sharer other than except: a write
// by another core restarts their locality measurement (Sections 3.2 and
// 3.4).
func (c *Classifier) DeactivateRemoteExcept(except int) {
	tracked, _ := c.split()
	for i := range tracked {
		if st := &tracked[i]; st.Core >= 0 && int(st.Core) != except && st.Mode == ModeRemote {
			st.RemoteUtil = 0
			st.Active = false
		}
	}
}

// Tracked is one tracked core's classification state, as AppendTracked
// reports it.
type Tracked struct {
	Core int
	CoreState
}

// AppendTracked appends c's tracked cores, in slot order, to dst and
// returns the extended slice; a classifier without storage (the zero
// value) appends nothing. A caller reusing dst allocates nothing.
func AppendTracked(dst []Tracked, c *Classifier) []Tracked {
	for i := 0; i < len(c.slots)-1; i++ {
		if s := &c.slots[i]; s.Core >= 0 {
			dst = append(dst, Tracked{Core: int(s.Core), CoreState: s.CoreState})
		}
	}
	return dst
}

// StorageBits returns the per-directory-entry classifier storage in bits for
// a system with `cores` cores, reproducing the arithmetic of Section 3.6:
// per tracked core 1 mode bit, a remote-utilization counter sized by RATMax,
// a RAT-level field sized by NRATLevels, and (for Limited-k only) a core ID.
func StorageBits(cores, limitedK int, p Params) int {
	// A counter reaching RATMax needs bitsFor(RATMax-1) bits (the paper
	// stores 1..16 in 4 bits).
	utilBits := bitsFor(p.RATMax - 1)
	ratBits := bitsFor(p.NRATLevels - 1)
	if p.NRATLevels <= 1 {
		ratBits = 0
	}
	idBits := bitsFor(cores - 1)
	perCore := 1 + utilBits + ratBits
	if limitedK <= 0 || limitedK >= cores {
		return cores * perCore
	}
	return limitedK * (perCore + idBits)
}

func bitsFor(maxValue int) int {
	if maxValue <= 0 {
		return 0
	}
	bits := 0
	for v := maxValue; v > 0; v >>= 1 {
		bits++
	}
	return bits
}
