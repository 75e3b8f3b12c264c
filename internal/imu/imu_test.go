package imu

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/copro"
	"repro/internal/mem"
	"repro/internal/sim"
)

// tbOp is one scripted access for the testbench driver.
type tbOp struct {
	wr   bool
	obj  uint8
	addr uint32
	size uint8
	val  uint32
}

// tbResult records a completed access.
type tbResult struct {
	data       uint32
	issueCycle int64
	doneCycle  int64
}

// tbDriver is a minimal scripted coprocessor used to exercise the IMU.
type tbDriver struct {
	mem     *copro.Mem
	dom     *sim.Domain
	script  []tbOp
	idx     int
	results []tbResult
	issueAt int64
	finish  bool // drive CP_FIN once the script is exhausted
	pinv    bool // drive one CP_PINV pulse at the first edge
	sent    bool
}

func (d *tbDriver) Eval() {
	d.mem.Step()
	if d.mem.Completed() {
		d.results = append(d.results, tbResult{
			data:       d.mem.Data(),
			issueCycle: d.issueAt,
			doneCycle:  d.dom.Cycles(),
		})
		d.idx++
	}
	if d.mem.Ready() && d.idx < len(d.script) {
		op := d.script[d.idx]
		if op.wr {
			d.mem.Write(op.obj, op.addr, op.size, op.val)
		} else {
			d.mem.Read(op.obj, op.addr, op.size)
		}
		d.issueAt = d.dom.Cycles()
	}
	fin := d.finish && d.idx >= len(d.script) && d.mem.Ready()
	pinv := d.pinv && !d.sent
	d.sent = true
	d.mem.Drive(fin, pinv)
}

func (d *tbDriver) Update() { d.mem.Commit() }

// rig bundles a complete IMU test fixture.
type rig struct {
	eng  *sim.Engine
	dom  *sim.Domain
	dp   *mem.DPRAM
	imu  *IMU
	port *copro.Port
	drv  *tbDriver
}

func newRig(t *testing.T, mode Mode, script []tbOp) *rig {
	t.Helper()
	dp, err := mem.NewDPRAM(16*1024, 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	u, err := New(Config{PageShift: 11, Entries: 8, Mode: mode}, dp)
	if err != nil {
		t.Fatal(err)
	}
	port := copro.NewPort()
	u.BindCh(0, port)
	eng := sim.NewEngine()
	dom := eng.NewDomain("imu", 40_000_000)
	drv := &tbDriver{mem: copro.NewMem(port), dom: dom, script: script}
	dom.Attach(drv)
	dom.Attach(u)
	return &rig{eng: eng, dom: dom, dp: dp, imu: u, port: port, drv: drv}
}

// mapPage installs a TLB entry mapping (obj, vpage) -> frame.
func (r *rig) mapPage(obj uint8, vpage uint32, frame uint8) {
	for i := 0; i < r.imu.Entries(); i++ {
		if !r.imu.Entry(i).Valid {
			if err := r.imu.SetEntry(i, TLBEntry{Valid: true, Obj: obj, VPage: vpage, Frame: frame}); err != nil {
				panic(err)
			}
			return
		}
	}
	panic("no free TLB entry")
}

func (r *rig) runUntil(t *testing.T, done func() bool) {
	t.Helper()
	if _, err := r.eng.RunUntil(done, 100000); err != nil {
		t.Fatalf("simulation did not converge: %v", err)
	}
}

func TestFig7ReadLatencyIsFourCycles(t *testing.T) {
	r := newRig(t, MultiCycle, []tbOp{{obj: 2, addr: 0x10, size: copro.Size32}})
	r.mapPage(2, 0, 3)
	want := uint32(0xa5a5_1234)
	if err := r.dp.WriteB(r.dp.PageBase(3)+0x10, want, 0xf); err != nil {
		t.Fatal(err)
	}

	var accessSeen, hitSeen int64 = -1, -1
	r.imu.SetTrace(&TraceHooks{OnEdge: func(cy uint64, cp copro.CPOut, out copro.IMUOut) {
		if cp.Access && accessSeen < 0 {
			accessSeen = int64(cy)
		}
		if out.TLBHit && hitSeen < 0 {
			hitSeen = int64(cy)
		}
	}})

	r.runUntil(t, func() bool { return len(r.drv.results) == 1 })
	if got := r.drv.results[0].data; got != want {
		t.Fatalf("read data = %#x, want %#x", got, want)
	}
	if accessSeen < 0 || hitSeen < 0 {
		t.Fatalf("trace incomplete: access@%d hit@%d", accessSeen, hitSeen)
	}
	// The paper's Figure 7: the data is ready on the fourth rising edge
	// after the coprocessor generates the access. Both trace stamps are
	// first-visible edges (one after the respective commits), so the
	// committed-edge distance is their difference.
	if d := hitSeen - accessSeen; d != 4 {
		t.Fatalf("translated read latency = %d cycles, want 4 (access committed@%d, hit committed@%d)",
			d, accessSeen-1, hitSeen-1)
	}
	if r.imu.Count.Accesses != 1 || r.imu.Count.Faults != 0 {
		t.Fatalf("counters = %+v", r.imu.Count)
	}
}

func TestPipelinedReadLatencyIsOneCycle(t *testing.T) {
	r := newRig(t, Pipelined, []tbOp{{obj: 1, addr: 0, size: copro.Size32}})
	r.mapPage(1, 0, 0)
	var accessSeen, hitSeen int64 = -1, -1
	r.imu.SetTrace(&TraceHooks{OnEdge: func(cy uint64, cp copro.CPOut, out copro.IMUOut) {
		if cp.Access && accessSeen < 0 {
			accessSeen = int64(cy)
		}
		if out.TLBHit && hitSeen < 0 {
			hitSeen = int64(cy)
		}
	}})
	r.runUntil(t, func() bool { return len(r.drv.results) == 1 })
	if d := hitSeen - accessSeen; d != 1 {
		t.Fatalf("pipelined read latency = %d cycles, want 1", d)
	}
}

func TestSubWordReadLaneExtraction(t *testing.T) {
	r := newRig(t, MultiCycle, []tbOp{
		{obj: 0, addr: 0x21, size: copro.Size8},
		{obj: 0, addr: 0x22, size: copro.Size16},
	})
	r.mapPage(0, 0, 0)
	if err := r.dp.WriteB(0x20, 0xddccbbaa, 0xf); err != nil {
		t.Fatal(err)
	}
	r.runUntil(t, func() bool { return len(r.drv.results) == 2 })
	if got := r.drv.results[0].data; got != 0xbb {
		t.Fatalf("byte read = %#x, want 0xbb", got)
	}
	if got := r.drv.results[1].data; got != 0xddcc {
		t.Fatalf("halfword read = %#x, want 0xddcc", got)
	}
}

func TestWriteSetsDirtyAndLands(t *testing.T) {
	r := newRig(t, MultiCycle, []tbOp{
		{wr: true, obj: 5, addr: 0x40, size: copro.Size32, val: 0x01020304},
		{wr: true, obj: 5, addr: 0x45, size: copro.Size8, val: 0x99},
	})
	r.mapPage(5, 0, 7)
	r.runUntil(t, func() bool { return len(r.drv.results) == 2 })
	base := r.dp.PageBase(7)
	w, _ := r.dp.ReadB(base + 0x40)
	if w != 0x01020304 {
		t.Fatalf("word at +0x40 = %#x", w)
	}
	w, _ = r.dp.ReadB(base + 0x44)
	if w&0x0000ff00 != 0x9900 {
		t.Fatalf("byte lane write wrong: word = %#x", w)
	}
	if !r.imu.Entry(0).Dirty {
		t.Fatal("dirty bit not set by write hit")
	}
}

func TestFaultRaisesIRQAndRestartResumes(t *testing.T) {
	r := newRig(t, MultiCycle, []tbOp{{obj: 9, addr: 0x1810, size: copro.Size32}})
	// No mapping for obj 9 page 3 -> fault. (0x1810 >> 11 == 3)
	r.runUntil(t, func() bool { return r.imu.IRQ() })
	if !r.imu.FaultPendingCh(0) {
		t.Fatal("SR.FAULT not set")
	}
	if r.imu.FaultObj() != 9 {
		t.Fatalf("AR obj = %d, want 9", r.imu.FaultObj())
	}
	if r.imu.FaultAddr() != 0x1810 {
		t.Fatalf("AR addr = %#x, want 0x1810", r.imu.FaultAddr())
	}
	if r.imu.Count.Faults != 1 {
		t.Fatalf("faults = %d, want 1", r.imu.Count.Faults)
	}

	// OS service: install the mapping, put data in the frame, restart.
	want := uint32(0x5ee5_0042)
	if err := r.dp.WriteB(r.dp.PageBase(2)+0x10, want, 0xf); err != nil {
		t.Fatal(err)
	}
	r.mapPage(9, 3, 2)
	r.imu.RestartCh(0)
	r.runUntil(t, func() bool { return len(r.drv.results) == 1 })
	if got := r.drv.results[0].data; got != want {
		t.Fatalf("post-restart data = %#x, want %#x", got, want)
	}
	if r.imu.FaultPendingCh(0) || r.imu.IRQ() {
		t.Fatal("fault state not cleared after restart")
	}
}

func TestFinSetsDoneAndAckClears(t *testing.T) {
	r := newRig(t, MultiCycle, []tbOp{{obj: 0, addr: 0, size: copro.Size32}})
	r.mapPage(0, 0, 0)
	r.drv.finish = true
	r.imu.StartCh(0)
	r.runUntil(t, func() bool { return r.imu.DonePendingCh(0) })
	if !r.imu.IRQ() {
		t.Fatal("completion did not raise IRQ")
	}
	if r.imu.SR()&SRRunning == 0 {
		t.Fatal("SR.RUNNING lost before ack")
	}
	r.imu.AckDoneCh(0)
	r.eng.RunCycles(r.dom, 3)
	if r.imu.DonePendingCh(0) || r.imu.IRQ() {
		t.Fatal("AckDone did not clear completion state")
	}
	if r.port.IMU().Start {
		t.Fatal("CP_START still asserted after AckDone")
	}
}

func TestParamPageInvalidation(t *testing.T) {
	r := newRig(t, MultiCycle, nil)
	r.mapPage(copro.ParamObj, 0, 0)
	r.drv.pinv = true
	r.eng.RunCycles(r.dom, 5)
	if !r.imu.ParamFreeCh(0) {
		t.Fatal("SR.PARAMFREE not set")
	}
	if r.imu.Entry(0).Valid {
		t.Fatal("parameter TLB entry still valid")
	}
	if r.imu.Count.ParamFrees != 1 {
		t.Fatalf("ParamFrees = %d, want 1", r.imu.Count.ParamFrees)
	}
	r.imu.ClearParamFreeCh(0)
	if r.imu.ParamFreeCh(0) {
		t.Fatal("ClearParamFree did not clear the bit")
	}
}

func TestLastUseStampsAreMonotone(t *testing.T) {
	r := newRig(t, MultiCycle, []tbOp{
		{obj: 0, addr: 0, size: copro.Size32},
		{obj: 1, addr: 0, size: copro.Size32},
		{obj: 0, addr: 4, size: copro.Size32},
	})
	r.mapPage(0, 0, 0)
	r.mapPage(1, 0, 1)
	r.runUntil(t, func() bool { return len(r.drv.results) == 3 })
	e0, e1 := r.imu.Entry(0), r.imu.Entry(1)
	if !e0.Ref || !e1.Ref {
		t.Fatal("Ref bits not set by hits")
	}
	if !(e0.LastUse > e1.LastUse) {
		t.Fatalf("LastUse not monotone: e0=%d e1=%d (obj0 touched last)", e0.LastUse, e1.LastUse)
	}
}

func TestRegisterWindow(t *testing.T) {
	dp, _ := mem.NewDPRAM(16*1024, 2*1024)
	u, err := New(Config{PageShift: 11, Entries: 8}, dp)
	if err != nil {
		t.Fatal(err)
	}
	// Select entry 3 and program it through the window.
	if err := u.RegWrite(RegTLBIdx, 3); err != nil {
		t.Fatal(err)
	}
	e := TLBEntry{Valid: true, Obj: 7, VPage: 5, Frame: 6, Dirty: true, Ref: true}
	if err := u.RegWrite(RegTLBLo, packLo(e)); err != nil {
		t.Fatal(err)
	}
	if err := u.RegWrite(RegTLBHi, packHi(e)); err != nil {
		t.Fatal(err)
	}
	got := u.Entry(3)
	if got.Obj != 7 || got.VPage != 5 || got.Frame != 6 || !got.Valid || !got.Dirty || !got.Ref {
		t.Fatalf("entry = %+v", got)
	}
	lo, _ := u.RegRead(RegTLBLo)
	hi, _ := u.RegRead(RegTLBHi)
	if lo != packLo(e) || hi != packHi(e) {
		t.Fatal("register readback mismatch")
	}
	if n, _ := u.RegRead(RegTLBCount); n != 8 {
		t.Fatalf("TLBCount = %d, want 8", n)
	}
	if err := u.RegWrite(RegTLBIdx, 99); err == nil {
		t.Fatal("accepted out-of-range TLB index")
	}
	if _, err := u.RegRead(0x7c); err == nil {
		t.Fatal("accepted unmapped register read")
	}
	// CR dispatch.
	if err := u.RegWrite(RegCR, CRStart); err != nil {
		t.Fatal(err)
	}
	if u.ch[0].ctl&ctlStart == 0 {
		t.Fatal("CRStart did not request start")
	}
}

func TestNewValidation(t *testing.T) {
	dp, _ := mem.NewDPRAM(16*1024, 2*1024)
	if _, err := New(Config{PageShift: 11, Entries: 4}, dp); err == nil {
		t.Fatal("accepted entry/frame mismatch")
	}
	if _, err := New(Config{PageShift: 12, Entries: 8}, dp); err == nil {
		t.Fatal("accepted page-size mismatch")
	}
	if _, err := New(Config{PageShift: 11, Entries: 8}, nil); err == nil {
		t.Fatal("accepted nil DP RAM")
	}
}

func TestBackToBackAccessThroughput(t *testing.T) {
	// Eight sequential word reads; in multi-cycle mode each handshake
	// takes 7 driver cycles (issue + 4 translation + consume + drain).
	var script []tbOp
	for i := 0; i < 8; i++ {
		script = append(script, tbOp{obj: 0, addr: uint32(i * 4), size: copro.Size32})
	}
	r := newRig(t, MultiCycle, script)
	r.mapPage(0, 0, 0)
	r.runUntil(t, func() bool { return len(r.drv.results) == 8 })
	multi := r.drv.results[7].doneCycle

	r2 := newRig(t, Pipelined, script)
	r2.mapPage(0, 0, 0)
	r2.runUntil(t, func() bool { return len(r2.drv.results) == 8 })
	pipe := r2.drv.results[7].doneCycle
	if pipe >= multi {
		t.Fatalf("pipelined (%d cycles) not faster than multi-cycle (%d)", pipe, multi)
	}
}

// TestQuickTranslationMatchesModel drives random TLB programs and random
// accesses through the hardware FSM and checks every outcome (hit/fault,
// returned data, written bytes) against a direct software model of a fully
// associative translation table.
func TestQuickTranslationMatchesModel(t *testing.T) {
	f := func(seedRaw int64) bool {
		seed := seedRaw
		rng := rand.New(rand.NewSource(seed))

		// Random table: map a handful of (obj, vpage) pairs to distinct
		// frames; fill the DP RAM with a seeded pattern.
		type key struct {
			obj   uint8
			vpage uint32
		}
		mapping := map[key]uint8{}
		var script []tbOp
		nMap := 1 + rng.Intn(7)
		framesUsed := rng.Perm(8)
		for i := 0; i < nMap; i++ {
			k := key{obj: uint8(rng.Intn(4)), vpage: uint32(rng.Intn(3))}
			if _, dup := mapping[k]; dup {
				continue
			}
			mapping[k] = uint8(framesUsed[i])
		}
		// Random accesses over mapped pages only (faults stall forever
		// in an OS-less rig, so the script stays within the mapping).
		keys := make([]key, 0, len(mapping))
		for k := range mapping {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			return keys[i].obj < keys[j].obj ||
				(keys[i].obj == keys[j].obj && keys[i].vpage < keys[j].vpage)
		})
		sizes := []uint8{1, 2, 4}
		for i := 0; i < 24; i++ {
			k := keys[rng.Intn(len(keys))]
			sz := sizes[rng.Intn(3)]
			off := uint32(rng.Intn(2048/int(sz))) * uint32(sz)
			script = append(script, tbOp{
				wr:   rng.Intn(2) == 0,
				obj:  k.obj,
				addr: k.vpage*2048 + off,
				size: sz,
				val:  rng.Uint32(),
			})
		}

		r := newRig(t, MultiCycle, script)
		model := make([]byte, 16*1024)
		rng2 := rand.New(rand.NewSource(seed + 1))
		rng2.Read(model)
		if err := r.dp.Store().WriteBytes(0, model); err != nil {
			return false
		}
		for k, f := range mapping {
			r.mapPage(k.obj, k.vpage, f)
		}
		r.runUntil(t, func() bool { return len(r.drv.results) == len(script) })

		// Replay on the model.
		for i, op := range script {
			k := key{op.obj, op.addr / 2048}
			base := uint32(mapping[k])*2048 + op.addr%2048
			if op.wr {
				for b := uint8(0); b < op.size; b++ {
					model[base+uint32(b)] = byte(op.val >> (8 * b))
				}
			} else {
				var want uint32
				for b := uint8(0); b < op.size; b++ {
					want |= uint32(model[base+uint32(b)]) << (8 * b)
				}
				if r.drv.results[i].data != want {
					t.Logf("seed %d op %d: read %#x want %#x", seed, i, r.drv.results[i].data, want)
					return false
				}
			}
		}
		got, err := r.dp.Store().ReadBytes(0, len(model))
		if err != nil {
			return false
		}
		for i := range model {
			if got[i] != model[i] {
				t.Logf("seed %d: DP byte %#x differs", seed, i)
				return false
			}
		}
		return r.imu.Count.Faults == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
