package directory

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/cm"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tokens"
)

// fakeProc is a scriptable ProcessorPort for protocol unit tests.
type fakeProc struct {
	id            int
	invalidations []mem.LineAddr
	abortNext     bool // DeliverInvalidation returns this and resets it
	stopClocks    int
	dropStop      bool // refuse to freeze (committing)
	ons           int
	gated         bool
	txPC          uint64
	txOK          bool
}

func (f *fakeProc) ID() int { return f.id }

func (f *fakeProc) DeliverInvalidation(l mem.LineAddr, aborter, dir int) bool {
	f.invalidations = append(f.invalidations, l)
	a := f.abortNext
	f.abortNext = false
	return a
}

func (f *fakeProc) DeliverStopClock(dir int) bool {
	f.stopClocks++
	if f.dropStop {
		return false
	}
	f.gated = true
	return true
}

func (f *fakeProc) DeliverOn(dir int) {
	f.ons++
	f.gated = false
}

func (f *fakeProc) Gated() bool { return f.gated }

func (f *fakeProc) TxInfo() (uint64, bool) { return f.txPC, f.txOK }

func (f *fakeProc) NoteLineCommitted(l mem.LineAddr, version uint64) {}

type rig struct {
	eng      *sim.Engine
	bus      bus.Interconnect
	dir      *Directory
	procs    []*fakeProc
	counters stats.Counters
}

func newRig(t *testing.T, nProcs int, gated bool, edit func(*config.Config)) *rig {
	t.Helper()
	cfg := config.Default(nProcs)
	if gated {
		cfg = cfg.WithGating(8)
	}
	if edit != nil {
		edit(&cfg)
	}
	r := &rig{eng: sim.NewEngine()}
	r.bus = bus.NewInterconnect(r.eng, cfg.Machine.BusCycles, 0, 1, "")
	r.dir = New(0, r.eng, r.bus, cfg.Machine, cfg.Gating, cm.GatingAware{W0: cfg.Gating.W0}, &r.counters)
	ports := make([]ProcessorPort, nProcs)
	for i := 0; i < nProcs; i++ {
		r.procs = append(r.procs, &fakeProc{id: i, txPC: 0x100 + uint64(i), txOK: true})
		ports[i] = r.procs[i]
	}
	r.dir.Attach(ports, nil)
	return r
}

func TestHandleReadAddsSharerAndReplies(t *testing.T) {
	r := newRig(t, 2, false, nil)
	replied := sim.Time(-1)
	r.dir.HandleRead(1, 40, func(uint64) { replied = r.eng.Now() })
	r.eng.Run()
	if replied < 0 {
		t.Fatal("no reply")
	}
	// dir 10 + mem 100 + bus 2 = 112 minimum.
	if replied < 112 {
		t.Fatalf("reply at %d, too fast", replied)
	}
	if !r.dir.Sharers(40).Has(1) {
		t.Fatal("requester not recorded as sharer")
	}
}

func TestHandleReadSerializesMemoryPort(t *testing.T) {
	r := newRig(t, 2, false, nil)
	var first, second sim.Time
	r.dir.HandleRead(0, 1, func(uint64) { first = r.eng.Now() })
	r.dir.HandleRead(1, 2, func(uint64) { second = r.eng.Now() })
	r.eng.Run()
	if second-first < 100 {
		t.Fatalf("memory port not serialized: %d then %d", first, second)
	}
}

func TestHeadPicksLowestTID(t *testing.T) {
	r := newRig(t, 3, false, nil)
	r.dir.Mark(2, tokens.TID(30))
	r.dir.Mark(0, tokens.TID(10))
	r.dir.Mark(1, tokens.TID(20))
	if p, ok := r.dir.Head(); !ok || p != 0 {
		t.Fatalf("head = %d,%v; want 0", p, ok)
	}
	r.dir.Unmark(0)
	if p, _ := r.dir.Head(); p != 1 {
		t.Fatalf("head after unmark = %d; want 1", p)
	}
}

func TestHeadEmpty(t *testing.T) {
	r := newRig(t, 2, false, nil)
	if _, ok := r.dir.Head(); ok {
		t.Fatal("empty directory has a head")
	}
}

func TestBeginCommitInvalidatesSharers(t *testing.T) {
	r := newRig(t, 3, false, nil)
	// Lines 5 and 9 shared by procs 1 and 2.
	r.dir.line(5).sharers.Add(1)
	r.dir.line(5).sharers.Add(2)
	r.dir.line(9).sharers.Add(1)
	r.dir.Mark(0, 1)
	done := false
	r.dir.BeginCommit(0, []mem.LineAddr{5, 9}, func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("commit did not complete")
	}
	if len(r.procs[1].invalidations) != 2 {
		t.Fatalf("proc 1 got %v", r.procs[1].invalidations)
	}
	if len(r.procs[2].invalidations) != 1 || r.procs[2].invalidations[0] != 5 {
		t.Fatalf("proc 2 got %v", r.procs[2].invalidations)
	}
	if len(r.procs[0].invalidations) != 0 {
		t.Fatal("committer invalidated itself")
	}
	if r.dir.Owner(5) != 0 || r.dir.Sharers(5) != Only(0) {
		t.Fatal("ownership not transferred")
	}
	if r.dir.Busy() {
		t.Fatal("directory still busy")
	}
	if r.dir.Marked(0) {
		t.Fatal("mark survived commit")
	}
	if r.counters.Invalidations != 3 {
		t.Fatalf("invalidations counted %d", r.counters.Invalidations)
	}
}

func TestBeginCommitOccupiesPerLine(t *testing.T) {
	r := newRig(t, 1, false, nil)
	r.dir.Mark(0, 1)
	var doneAt sim.Time
	r.dir.BeginCommit(0, []mem.LineAddr{1, 2, 3}, func() { doneAt = r.eng.Now() })
	r.eng.Run()
	if doneAt != 30 { // 3 lines x 10 cycles
		t.Fatalf("commit finished at %d, want 30", doneAt)
	}
}

func TestBeginCommitWhileBusyPanics(t *testing.T) {
	r := newRig(t, 2, false, nil)
	r.dir.Mark(0, 1)
	r.dir.Mark(1, 2)
	r.dir.BeginCommit(0, []mem.LineAddr{1}, func() {})
	defer func() {
		if recover() == nil {
			t.Error("double BeginCommit did not panic")
		}
	}()
	r.dir.BeginCommit(1, []mem.LineAddr{2}, func() {})
}

func TestBeginCommitWithoutMarkPanics(t *testing.T) {
	r := newRig(t, 1, false, nil)
	defer func() {
		if recover() == nil {
			t.Error("BeginCommit without mark did not panic")
		}
	}()
	r.dir.BeginCommit(0, []mem.LineAddr{1}, func() {})
}

// gateRig sets up: proc 1 is a sharer of line 7; proc 0 commits it; proc 1
// reports abort -> gating protocol engages.
func gateRig(t *testing.T, edit func(*config.Config)) *rig {
	t.Helper()
	r := newRig(t, 2, true, edit)
	r.dir.line(7).sharers.Add(1)
	r.procs[1].abortNext = true
	r.dir.Mark(0, 1)
	r.dir.BeginCommit(0, []mem.LineAddr{7}, func() {})
	return r
}

func TestGatingOnAbort(t *testing.T) {
	r := gateRig(t, nil)
	r.eng.RunUntil(14) // commit at 10, inval over bus at 12
	if !r.dir.Off(1) {
		t.Fatal("victim not marked OFF")
	}
	if r.procs[1].stopClocks != 1 || !r.procs[1].gated {
		t.Fatal("StopClock not delivered")
	}
	if r.dir.AbortCount(1) != 1 || r.dir.RenewCount(1) != 0 {
		t.Fatalf("counters Na=%d Nr=%d", r.dir.AbortCount(1), r.dir.RenewCount(1))
	}
	if r.counters.Gatings != 1 || r.counters.Aborts != 1 {
		t.Fatalf("counters %+v", r.counters)
	}
}

func TestUngateWhenAborterGone(t *testing.T) {
	r := gateRig(t, nil)
	// After the commit completes, proc 0 is unmarked; timer expiry must
	// send On.
	r.eng.Run()
	if r.procs[1].ons != 1 {
		t.Fatalf("victim got %d On commands, want 1", r.procs[1].ons)
	}
	if r.dir.Off(1) {
		t.Fatal("OFF bit survived ungate")
	}
	if r.counters.Ungates != 1 {
		t.Fatalf("ungates %d", r.counters.Ungates)
	}
}

func TestRenewalWhileAborterPresentSameTx(t *testing.T) {
	// Keep the aborter "present" via an eager announcement executing the
	// same transaction: the first timer expiry must renew, not ungate.
	r := gateRig(t, nil)
	r.dir.AnnounceIntent(0) // aborter announced (executing same tx)
	r.eng.RunUntil(40)      // first window W0*(1+0)=8 expires ~t=20-26
	if r.counters.Renewals < 1 {
		t.Fatalf("no renewal happened (renewals=%d)", r.counters.Renewals)
	}
	if r.dir.RenewCount(1) < 1 {
		t.Fatalf("renew count %d", r.dir.RenewCount(1))
	}
	if r.procs[1].ons != 0 {
		t.Fatal("victim was ungated despite present aborter")
	}
	// Withdraw the announcement: the next expiry must ungate.
	r.dir.WithdrawIntent(0)
	r.eng.Run()
	if r.procs[1].ons != 1 {
		t.Fatalf("victim not ungated after withdrawal (ons=%d)", r.procs[1].ons)
	}
}

func TestUngateWhenAborterChangedTx(t *testing.T) {
	r := gateRig(t, nil)
	r.dir.AnnounceIntent(0)
	r.eng.RunUntil(14) // let the gating happen with the original tx id
	// The aborter moved on to a different static transaction.
	r.procs[0].txPC = 0x999
	r.eng.RunUntil(60)
	if r.procs[1].ons != 1 {
		t.Fatalf("victim not ungated on tx change (ons=%d)", r.procs[1].ons)
	}
	if r.counters.Renewals != 0 {
		t.Fatalf("renewed despite tx change (%d)", r.counters.Renewals)
	}
}

func TestUngateOnNullTxInfoReply(t *testing.T) {
	// "In the case the processor P0 has itself been turned off ... the
	// reply to the TxInfoReq message will be null ... turning the victim
	// processor on."
	r := gateRig(t, nil)
	r.dir.AnnounceIntent(0)
	r.procs[0].txOK = false // gated aborter: null reply
	r.eng.RunUntil(60)
	if r.procs[1].ons != 1 {
		t.Fatal("victim not ungated on null reply")
	}
}

func TestDisableRenewalAblation(t *testing.T) {
	r := gateRig(t, func(c *config.Config) { c.Gating.DisableRenewal = true })
	r.dir.AnnounceIntent(0) // would renew if the mechanism were on
	r.eng.RunUntil(60)
	if r.counters.Renewals != 0 {
		t.Fatal("renewal happened despite DisableRenewal")
	}
	if r.procs[1].ons != 1 {
		t.Fatal("victim not ungated blindly")
	}
}

func TestAbortCounterSaturates(t *testing.T) {
	r := newRig(t, 2, true, func(c *config.Config) { c.Gating.AbortCounterBits = 2 })
	for i := 0; i < 10; i++ {
		r.dir.gateVictim(1, 0)
	}
	if got := r.dir.AbortCount(1); got != 3 {
		t.Fatalf("2-bit abort counter at %d, want saturation at 3", got)
	}
}

func TestRepeatGatingGrowsWindow(t *testing.T) {
	// Second abort at the same directory doubles the base window term.
	r := newRig(t, 2, true, nil)
	r.dir.gateVictim(1, 0)
	if r.dir.AbortCount(1) != 1 {
		t.Fatal("first gate Na != 1")
	}
	r.dir.gateVictim(1, 0)
	if r.dir.AbortCount(1) != 2 {
		t.Fatal("second gate Na != 2")
	}
	if r.dir.RenewCount(1) != 0 {
		t.Fatal("renew count not reset by new abort")
	}
}

func TestLoadStoreFromRunningProcClearsStaleOff(t *testing.T) {
	r := newRig(t, 2, true, nil)
	r.dir.gateVictim(1, 0)
	r.eng.RunUntil(5)
	// Proc 1 was woken elsewhere (its Gated()==false since dropStop...).
	r.procs[1].gated = false
	r.dir.HandleRead(1, 3, func(uint64) {})
	if r.dir.Off(1) {
		t.Fatal("stale OFF bit not cleared by load from running processor")
	}
}

func TestLoadStoreFromFrozenProcKeepsOff(t *testing.T) {
	// A request that was in flight when the clock stopped must NOT clear
	// the OFF bit (the processor is genuinely frozen).
	r := newRig(t, 2, true, nil)
	r.dir.gateVictim(1, 0)
	r.eng.RunUntil(5) // StopClock delivered synchronously in gateVictim
	if !r.procs[1].gated {
		t.Fatal("setup: victim should be frozen")
	}
	r.dir.HandleRead(1, 3, func(uint64) {})
	if !r.dir.Off(1) {
		t.Fatal("OFF bit cleared by a stale in-flight request")
	}
}

func TestOnProcessorCommittedResetsCounters(t *testing.T) {
	r := newRig(t, 2, true, nil)
	r.dir.gateVictim(1, 0)
	r.dir.gateVictim(1, 0)
	r.dir.OnProcessorCommitted(1)
	if r.dir.AbortCount(1) != 0 || r.dir.RenewCount(1) != 0 {
		t.Fatal("commit did not reset the gate counters")
	}
}

func TestForceUngateAll(t *testing.T) {
	r := newRig(t, 3, true, nil)
	r.dir.gateVictim(1, 0)
	r.dir.gateVictim(2, 0)
	r.dir.ForceUngateAll()
	r.eng.Run()
	if r.procs[1].ons != 1 || r.procs[2].ons != 1 {
		t.Fatal("ForceUngateAll did not ungate everyone")
	}
	if r.dir.Off(1) || r.dir.Off(2) {
		t.Fatal("OFF bits survive ForceUngateAll")
	}
}

func TestTooManyProcessorsPanics(t *testing.T) {
	cfg := config.Default(MaxProcs + 1)
	defer func() {
		if recover() == nil {
			t.Errorf("%d processors did not panic (%d-bit sharer vector)", MaxProcs+1, MaxProcs)
		}
	}()
	var c stats.Counters
	New(0, sim.NewEngine(), bus.NewInterconnect(sim.NewEngine(), 1, 0, 1, ""), cfg.Machine, cfg.Gating, cm.None{}, &c)
}

func TestEmptyCommitStillTouchesDirectory(t *testing.T) {
	r := newRig(t, 1, false, nil)
	r.dir.Mark(0, 1)
	done := false
	r.dir.BeginCommit(0, nil, func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("empty commit did not complete")
	}
}
