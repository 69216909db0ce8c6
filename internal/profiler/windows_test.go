package profiler

import (
	"slices"
	"testing"

	"rdasched/internal/memtrace"
	"rdasched/internal/pp"
)

// mapWindows is Windows as it was written with Go maps for the entry
// and jump tables. It is the oracle FuzzWindowsMatchesMap holds the
// open-addressed table to.
func mapWindows(s memtrace.Stream, cfg Config) ([]WindowStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var out []WindowStats
	touches := make(map[uint64]uint32)
	jumps := make(map[int]uint64)
	var cur WindowStats
	cur.TopSite = -1
	windowEnd := cfg.WindowInstr

	flush := func(end uint64) {
		cur.EndInstr = end
		var fpEntries, wssEntries int
		var total uint64
		for _, n := range touches {
			fpEntries++
			total += uint64(n)
			if int(n) >= cfg.MinTouches {
				wssEntries++
			}
		}
		cur.Footprint = pp.Bytes(fpEntries) * cfg.EntryBytes
		cur.WSS = pp.Bytes(wssEntries) * cfg.EntryBytes
		if fpEntries > 0 {
			cur.ReuseRatio = float64(total) / float64(fpEntries)
		}
		top, topCount := -1, uint64(0)
		for site, n := range jumps {
			if n > topCount || (n == topCount && site < top) {
				top, topCount = site, n
			}
		}
		cur.TopSite = top
		out = append(out, cur)

		cur = WindowStats{Index: cur.Index + 1, StartInstr: end, TopSite: -1}
		clear(touches)
		clear(jumps)
	}

	var lastInstr uint64
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		lastInstr = r.Instr
		for r.Instr >= windowEnd {
			flush(windowEnd)
			windowEnd += cfg.WindowInstr
		}
		if r.IsJump {
			jumps[r.JumpSite]++
			continue
		}
		cur.Refs++
		touches[r.Addr/uint64(cfg.EntryBytes)]++
	}
	if cur.Refs > 0 || len(jumps) > 0 || len(touches) > 0 {
		flush(lastInstr + 1)
	}
	return out, nil
}

// fuzzTrace decodes a fuzz input into a trace. Each op byte's low two
// bits pick a record kind and the next byte is its argument; the op's
// high six bits g set the instruction gap before the record,
// g²·window/128, so g = 63 skips about 31 windows.
//
//	0: a reference to address 40·arg (arg 0 is address 0)
//	1: a reference to address 2^64-1-40·arg
//	2: a jump at site int8(arg)
//	3: a burst of 512·(arg%32+1) distinct entries, the first half of
//	   them touched twice, all in one window: up to 16384 entries, which
//	   grows a 4096-slot table twice
func fuzzTrace(ops []byte, window uint64, entryBytes pp.Bytes) []memtrace.Ref {
	var refs []memtrace.Ref
	var instr uint64
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		g := uint64(op >> 2)
		instr += g * g * window / 128
		switch op & 3 {
		case 0:
			refs = append(refs, memtrace.Ref{Instr: instr, Addr: 40 * uint64(arg)})
		case 1:
			refs = append(refs, memtrace.Ref{Instr: instr, Addr: ^uint64(0) - 40*uint64(arg)})
		case 2:
			refs = append(refs, memtrace.Ref{Instr: instr, IsJump: true, JumpSite: int(int8(arg))})
		case 3:
			n := 512 * (uint64(arg)%32 + 1)
			base := uint64(arg) << 40
			for k := uint64(0); k < n+n/2; k++ {
				refs = append(refs, memtrace.Ref{Instr: instr, Addr: base + (k%n)*uint64(entryBytes)})
			}
		}
	}
	return refs
}

// FuzzWindowsMatchesMap holds Windows to the map-based oracle: every
// WindowStats must be equal, field for field and bit for bit.
func FuzzWindowsMatchesMap(f *testing.F) {
	f.Add(uint16(64), uint32(1000), uint8(2), []byte{0, 0, 1, 0, 4, 5, 2, 3, 2, 5, 0xfc, 1, 3, 31})
	f.Add(uint16(48), uint32(7), uint8(0), []byte{2, 9, 2, 9, 2, 250, 2, 250, 0x40, 3, 0, 200})
	f.Fuzz(func(t *testing.T, entryBytes uint16, window uint32, minTouches uint8, ops []byte) {
		cfg := Config{
			WindowInstr:    uint64(window)%1_000_000 + 1,
			EntryBytes:     pp.Bytes(max(entryBytes, 1)),
			MinTouches:     int(minTouches%8) + 1,
			SimilarityTol:  0.25,
			ReuseTolFactor: 4,
		}
		cfg.MinPeriodInstr = cfg.WindowInstr
		refs := fuzzTrace(ops, cfg.WindowInstr, cfg.EntryBytes)
		want, err := mapWindows(memtrace.NewSliceStream(refs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Windows(memtrace.NewSliceStream(refs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Windows differs from the map oracle on %d refs, %+v:\n got %+v\nwant %+v",
				len(refs), cfg, got, want)
		}
	})
}

// TestWindowsAllocations pins that Windows allocates per call, not per
// window or per entry. Every window of the trace streams about 20k
// distinct entries, so the first grows the table twice and the rest
// reuse it. Four times the windows may cost only the two extra
// doublings of the result slice; a Go map as the table makes about 150
// allocations growing to this size.
func TestWindowsAllocations(t *testing.T) {
	cfg := testCfg()
	cfg.WindowInstr, cfg.MinPeriodInstr = 20_000, 60_000
	allocs := func(windows uint64) float64 {
		return testing.AllocsPerRun(3, func() {
			s := memtrace.NewPhasedStream(1, memtrace.PhaseSpec{
				Name: "stream", Instr: windows * cfg.WindowInstr, RefsPerInstr: 1,
				ColdBytes: 1 << 40, ColdStride: uint64(cfg.EntryBytes), Site: 1, JumpEvery: 1000,
			})
			if _, err := Windows(s, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	a10, a40 := allocs(10), allocs(40)
	if a40 > a10+2 || a10 > 20 {
		t.Fatalf("Windows allocates per window or per entry: %v allocs at 10 windows, %v at 40", a10, a40)
	}
}
