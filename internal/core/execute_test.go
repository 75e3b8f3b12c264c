package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/copro/adpcmdec"
	"repro/internal/copro/ideacp"
	"repro/internal/platform"
	"repro/internal/ref"
	"repro/internal/sim"
	"repro/internal/vim"
)

// oneMemberApp is one of the paper's coprocessors with its input data,
// sized past the EPXA1's 16 KB dual-port RAM so the run demand-pages.
type oneMemberApp struct {
	name   string
	img    []byte
	in     []byte
	outLen int
	inObj  uint8
	outObj uint8
	params []uint32
}

func oneMemberApps(t *testing.T) []oneMemberApp {
	t.Helper()
	build := func(h bitstream.Header) []byte {
		img, err := bitstream.Build(h)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}

	const ideaBytes = 16 * 1024
	rng := rand.New(rand.NewSource(916))
	var key ref.IDEAKey
	rng.Read(key[:])
	plain := make([]byte, ideaBytes)
	rng.Read(plain)
	ideaParams := []uint32{ideaBytes / 8}
	for _, w := range ideacp.PackSubkeys(ref.ExpandIDEAKey(key)) {
		ideaParams = append(ideaParams, w)
	}

	const adpcmBytes = 8 * 1024
	packed := make([]byte, adpcmBytes)
	rand.New(rand.NewSource(808)).Read(packed)

	return []oneMemberApp{
		{
			name: "idea",
			img: build(bitstream.Header{Device: "EPXA1", Core: ideacp.CoreName,
				CoreClock: 6_000_000, IMUClock: 24_000_000, LEs: 3900, Payload: []byte{1, 2, 3, 4}}),
			in: plain, outLen: ideaBytes,
			inObj: ideacp.ObjIn, outObj: ideacp.ObjOut,
			params: ideaParams,
		},
		{
			name: "adpcm",
			img: build(bitstream.Header{Device: "EPXA1", Core: adpcmdec.CoreName,
				CoreClock: 40_000_000, IMUClock: 40_000_000, LEs: 2100, Payload: []byte{5, 6, 7, 8}}),
			in: packed, outLen: 4 * adpcmBytes,
			inObj: adpcmdec.ObjIn, outObj: adpcmdec.ObjOut,
			params: []uint32{adpcmBytes},
		},
	}
}

// stage boots a fresh EPXA1 and writes app's input into a new user buffer.
func (app oneMemberApp) stage(t *testing.T) (board *platform.Board, in, out uint32) {
	t.Helper()
	board, err := platform.NewBoard(platform.EPXA1())
	if err != nil {
		t.Fatal(err)
	}
	if in, err = board.Kern.Alloc(len(app.in)); err != nil {
		t.Fatal(err)
	}
	if out, err = board.Kern.Alloc(app.outLen); err != nil {
		t.Fatal(err)
	}
	if err := board.Kern.WriteUser(in, app.in); err != nil {
		t.Fatal(err)
	}
	return board, in, out
}

// TestSessionIsOneMemberGang pins that the single-tenant Session is exactly
// the one-member case of the Gang: the same bitstream and data through a
// Session and through a one-member static Gang whose session owns the whole
// page pool give identical time components, cycle counts, VIM and IMU
// counters and output, across repeated executions and under both sim
// schedulers.
func TestSessionIsOneMemberGang(t *testing.T) {
	defer sim.SetDefaultScheduler(sim.SetDefaultScheduler(sim.EventDriven))
	for _, sched := range []sim.Scheduler{sim.EventDriven, sim.Lockstep} {
		sim.SetDefaultScheduler(sched)
		for _, app := range oneMemberApps(t) {
			t.Run(app.name+"/"+sched.String(), func(t *testing.T) {
				sb, sIn, sOut := app.stage(t)
				s, err := NewSession(sb, sb.Kern.NewProcess(app.name), vim.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Load(app.img); err != nil {
					t.Fatal(err)
				}
				if err := s.MapObject(app.inObj, sIn, uint32(len(app.in)), vim.In); err != nil {
					t.Fatal(err)
				}
				if err := s.MapObject(app.outObj, sOut, uint32(app.outLen), vim.Out); err != nil {
					t.Fatal(err)
				}

				gb, gIn, gOut := app.stage(t)
				g, err := NewGang(gb, vim.StaticPartition)
				if err != nil {
					t.Fatal(err)
				}
				mb, err := g.AddMember(app.img, gb.DP.Pages(), vim.Config{}, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := mb.Sess.MapObject(app.inObj, gIn, uint32(len(app.in)), vim.In); err != nil {
					t.Fatal(err)
				}
				if err := mb.Sess.MapObject(app.outObj, gOut, uint32(app.outLen), vim.Out); err != nil {
					t.Fatal(err)
				}
				mb.Params = app.params
				if err := g.Assemble(); err != nil {
					t.Fatal(err)
				}

				for round := 0; round < 2; round++ {
					sr, err := s.Execute(app.params...)
					if err != nil {
						t.Fatalf("round %d: session: %v", round, err)
					}
					gr, err := g.ExecuteAll()
					if err != nil {
						t.Fatalf("round %d: gang: %v", round, err)
					}
					if sr.VIM.Faults == 0 {
						t.Fatalf("round %d: no faults; the data should exceed the dual-port RAM", round)
					}
					if sr.HWPs != gr.HWPs || sr.SWDPPs != gr.SWDPPs || sr.SWIMUPs != gr.SWIMUPs ||
						sr.SWOSPs != gr.SWOSPs || sr.HWCy != gr.HWCy {
						t.Errorf("round %d: timeline differs:\nsession HW=%v DP=%v IMU=%v OS=%v cy=%d\ngang    HW=%v DP=%v IMU=%v OS=%v cy=%d",
							round, sr.HWPs, sr.SWDPPs, sr.SWIMUPs, sr.SWOSPs, sr.HWCy,
							gr.HWPs, gr.SWDPPs, gr.SWIMUPs, gr.SWOSPs, gr.HWCy)
					}
					if sr.VIM != gr.VIM {
						t.Errorf("round %d: VIM counters differ:\nsession %+v\ngang    %+v", round, sr.VIM, gr.VIM)
					}
					if sr.IMU != gr.IMU {
						t.Errorf("round %d: IMU counters differ:\nsession %+v\ngang    %+v", round, sr.IMU, gr.IMU)
					}
					sData, err := sb.Kern.ReadUser(sOut, app.outLen)
					if err != nil {
						t.Fatal(err)
					}
					gData, err := gb.Kern.ReadUser(gOut, app.outLen)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(sData, gData) {
						t.Errorf("round %d: outputs differ", round)
					}
				}
			})
		}
	}
}
