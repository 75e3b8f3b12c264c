// Command wavedump regenerates the paper's Figure 7 — the timing diagram of
// a translated coprocessor read access — as an ASCII waveform on stdout
// and, optionally, a VCD file for a waveform viewer.
//
// Usage:
//
//	wavedump                 # ASCII waveform
//	wavedump -vcd fig7.vcd   # also write VCD
//	wavedump -pipelined      # the 1-cycle pipelined IMU variant
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/copro"
	"repro/internal/imu"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	vcdPath := flag.String("vcd", "", "write a VCD file to this path")
	pipelined := flag.Bool("pipelined", false, "use the pipelined IMU")
	flag.Parse()

	mode := imu.MultiCycle
	if *pipelined {
		mode = imu.Pipelined
	}

	dp, err := mem.NewDPRAM(16*1024, 2*1024)
	if err != nil {
		log.Fatal(err)
	}
	u, err := imu.New(imu.Config{PageShift: 11, Entries: 8, Mode: mode}, dp)
	if err != nil {
		log.Fatal(err)
	}
	port := copro.NewPort()
	u.BindCh(0, port)
	if err := u.SetEntry(0, imu.TLBEntry{Valid: true, Obj: 2, VPage: 0, Frame: 3}); err != nil {
		log.Fatal(err)
	}
	if err := dp.WriteB(dp.PageBase(3)+0x10, 0xcafe0042, 0xf); err != nil {
		log.Fatal(err)
	}

	rec := trace.NewRecorder(25_000) // one 40 MHz period per time unit
	sClk := rec.Declare("clk", 1)
	sAddr := rec.Declare("cp_addr", 24)
	sAcc := rec.Declare("cp_access", 1)
	sHit := rec.Declare("cp_tlbhit", 1)
	sDin := rec.Declare("cp_din", 32)

	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	var lastEdge int64
	u.SetTrace(&imu.TraceHooks{OnEdge: func(cy uint64, cp copro.CPOut, out copro.IMUOut) {
		t := int64(cy)
		lastEdge = t
		rec.Record(sClk, t, 1)
		rec.Record(sAddr, t, uint64(cp.Addr))
		rec.Record(sAcc, t, b2u(cp.Access))
		rec.Record(sHit, t, b2u(out.TLBHit))
		rec.Record(sDin, t, uint64(out.DIn))
	}})

	eng := sim.NewEngine()
	dom := eng.NewDomain("imu", 40_000_000)
	m := copro.NewMem(port)
	issued := false
	var got uint32
	dom.Attach(sim.TickerFunc{
		OnEval: func() {
			m.Step()
			if m.Completed() {
				got = m.Data()
			}
			if !issued && m.Ready() {
				m.Read(2, 0x10, copro.Size32)
				issued = true
			}
			m.Drive(false, false)
		},
		OnUpdate: func() { m.Commit() },
	})
	dom.Attach(u)
	if _, err := eng.RunUntil(func() bool { return got != 0 }, 100); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("translated read access (%s IMU), one column per %s cycle:\n\n",
		u.Config().Mode, "40 MHz")
	fmt.Print(rec.RenderASCII(0, lastEdge))
	fmt.Printf("\nread data: %#x\n", got)

	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := rec.WriteVCD(f, "imu_fig7"); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("VCD written to %s\n", *vcdPath)
	}
}
