// Package profiler reimplements the paper's preliminary profiler (§2.4),
// which the authors built on Intel PIN: it consumes a load/store address
// stream in fixed-size instruction windows, computes each window's memory
// footprint, working-set size, and reuse ratio, detects progress periods
// as maximal runs of behaviourally similar windows, and correlates them
// with the program's loop structure through retired-JMP sampling (the
// paper uses Dyninst ParseAPI for that last step; internal/profiler's
// Binary type is the synthetic stand-in).
package profiler

import (
	"fmt"

	"rdasched/internal/memtrace"
	"rdasched/internal/pp"
)

// Config controls windowing and detection.
type Config struct {
	// WindowInstr is the sampling window size x: runtime statistics are
	// summarized every WindowInstr instructions.
	WindowInstr uint64
	// MinPeriodInstr is y: a repetition must span at least y instructions
	// (y/x consecutive similar windows) to count as a progress period.
	MinPeriodInstr uint64
	// EntryBytes is the address granularity of the footprint table (the
	// paper's array of unique addresses; 64 tracks cache lines).
	EntryBytes pp.Bytes
	// MinTouches is the pre-configured access count an entry needs to be
	// part of the working set (footprint counts every entry; WSS only
	// those touched at least MinTouches times).
	MinTouches int
	// SimilarityTol is the relative difference in working-set size below
	// which two windows count as "sufficiently similar".
	SimilarityTol float64
	// ReuseTolFactor bounds the ratio between two windows' reuse ratios
	// for similarity (e.g. 3 → within 3x of each other).
	ReuseTolFactor float64
}

// DefaultConfig mirrors the granularity the paper reports using: 1M
// instruction windows, periods of at least 4 windows, line-granular
// entries touched at least 4 times.
func DefaultConfig() Config {
	return Config{
		WindowInstr:    1_000_000,
		MinPeriodInstr: 4_000_000,
		EntryBytes:     64,
		MinTouches:     4,
		SimilarityTol:  0.25,
		ReuseTolFactor: 4,
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.WindowInstr == 0:
		return fmt.Errorf("profiler: zero window size")
	case c.MinPeriodInstr < c.WindowInstr:
		return fmt.Errorf("profiler: min period %d below window %d", c.MinPeriodInstr, c.WindowInstr)
	case c.EntryBytes <= 0:
		return fmt.Errorf("profiler: entry granularity %d", c.EntryBytes)
	case c.MinTouches <= 0:
		return fmt.Errorf("profiler: min touches %d", c.MinTouches)
	case c.SimilarityTol <= 0 || c.SimilarityTol >= 1:
		return fmt.Errorf("profiler: similarity tolerance %v outside (0,1)", c.SimilarityTol)
	case c.ReuseTolFactor < 1:
		return fmt.Errorf("profiler: reuse tolerance factor %v below 1", c.ReuseTolFactor)
	}
	return nil
}

// WindowStats summarizes one sampling window.
type WindowStats struct {
	Index      int
	StartInstr uint64
	EndInstr   uint64
	// Footprint is the total bytes touched (every entry).
	Footprint pp.Bytes
	// WSS is the working set: bytes in entries touched ≥ MinTouches times.
	WSS pp.Bytes
	// ReuseRatio is the mean touches per entry.
	ReuseRatio float64
	// Refs is the number of memory references in the window.
	Refs uint64
	// TopSite is the most frequently retired JMP site (-1 if none).
	TopSite int
}

// Windows consumes a trace and returns per-window statistics. The entry
// table is reset at each window boundary, exactly as described in §2.4.
// One table serves every window: it grows inside a window when needed
// and is cleared, not reallocated, at each boundary.
func Windows(s memtrace.Stream, cfg Config) ([]WindowStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var out []WindowStats
	var touches entryTable
	touches.alloc(entryTableLog)
	var jumps []siteCount
	var cur WindowStats
	cur.TopSite = -1
	windowEnd := cfg.WindowInstr

	flush := func(end uint64) {
		cur.EndInstr = end
		fpEntries, wssEntries, total := touches.drain(cfg.MinTouches)
		cur.Footprint = pp.Bytes(fpEntries) * cfg.EntryBytes
		cur.WSS = pp.Bytes(wssEntries) * cfg.EntryBytes
		if fpEntries > 0 {
			cur.ReuseRatio = float64(total) / float64(fpEntries)
		}
		top, topCount := -1, uint64(0)
		for _, j := range jumps {
			if j.n > topCount || (j.n == topCount && j.site < top) {
				top, topCount = j.site, j.n
			}
		}
		cur.TopSite = top
		out = append(out, cur)

		cur = WindowStats{Index: cur.Index + 1, StartInstr: end, TopSite: -1}
		jumps = jumps[:0]
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
			jumps = countSite(jumps, r.JumpSite)
			continue
		}
		cur.Refs++
		touches.touch(r.Addr / uint64(cfg.EntryBytes))
	}
	if cur.Refs > 0 || len(jumps) > 0 {
		flush(lastInstr + 1)
	}
	return out, nil
}

// siteCount is one JMP site's retirement count within a window.
type siteCount struct {
	site int
	n    uint64
}

// countSite adds one retirement of site. A window sees one or two
// sites, so a linear scan beats any map.
func countSite(jumps []siteCount, site int) []siteCount {
	for i := range jumps {
		if jumps[i].site == site {
			jumps[i].n++
			return jumps
		}
	}
	return append(jumps, siteCount{site: site, n: 1})
}

// entryTable is the window's array of unique addresses: an
// open-addressed touch counter with linear probing and Fibonacci
// hashing. Keys and counts sit in parallel slices and a zero count marks
// an empty slot, so key 0 needs no special case. (A count would wrap to
// zero only after 2^32 touches of one entry in one window.)
type entryTable struct {
	keys   []uint64
	counts []uint32
	shift  uint // 64 - log2(len(keys))
	used   int
}

const (
	entryTableLog = 12 // initial size: 4096 slots
	// Growing ×4 rather than ×2 leaves fewer dead tables behind on the
	// way to the largest window's size, which keeps peak RSS level.
	entryTableGrowLog = 2
	fibonacci         = 0x9E3779B97F4A7C15 // 2^64 / golden ratio
)

// alloc replaces the table with an empty one of 2^bits slots.
func (t *entryTable) alloc(bits uint) {
	t.keys = make([]uint64, 1<<bits)
	t.counts = make([]uint32, 1<<bits)
	t.shift = 64 - bits
	t.used = 0
}

// touch counts one access to key.
func (t *entryTable) touch(key uint64) {
	mask := uint64(len(t.keys) - 1)
	for i := (key * fibonacci) >> t.shift; ; i = (i + 1) & mask {
		switch {
		case t.counts[i] == 0:
			t.keys[i], t.counts[i] = key, 1
			t.used++
			if 4*t.used > 3*len(t.keys) {
				t.grow()
			}
			return
		case t.keys[i] == key:
			t.counts[i]++
			return
		}
	}
}

// grow moves every entry into a table 2^entryTableGrowLog times larger;
// touch calls it past ¾ load.
func (t *entryTable) grow() {
	keys, counts := t.keys, t.counts
	t.alloc(64 - t.shift + entryTableGrowLog)
	mask := uint64(len(t.keys) - 1)
	for j, n := range counts {
		if n == 0 {
			continue
		}
		i := (keys[j] * fibonacci) >> t.shift
		for t.counts[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i], t.counts[i] = keys[j], n
		t.used++
	}
}

// drain returns the window's sums — entries, entries touched at least
// minTouches times, and touches in all — and empties the table for the
// next window, keeping its size. The sums are integers, so the slot
// order cannot change them.
func (t *entryTable) drain(minTouches int) (entries, wss int, total uint64) {
	if t.used == 0 {
		return 0, 0, 0
	}
	for i, n := range t.counts {
		if n == 0 {
			continue
		}
		entries++
		total += uint64(n)
		if int(n) >= minTouches {
			wss++
		}
		t.counts[i] = 0
	}
	t.used = 0
	return entries, wss, total
}

// similar reports whether two windows exhibit the same resource access
// behaviour under the config's thresholds.
func similar(a, b *WindowStats, cfg Config) bool {
	// Working-set sizes within relative tolerance.
	hi, lo := a.WSS, b.WSS
	if hi < lo {
		hi, lo = lo, hi
	}
	if hi > 0 && float64(hi-lo) > cfg.SimilarityTol*float64(hi) {
		return false
	}
	// Reuse ratios within a multiplicative band.
	ra, rb := a.ReuseRatio, b.ReuseRatio
	if ra < rb {
		ra, rb = rb, ra
	}
	if rb > 0 && ra/rb > cfg.ReuseTolFactor {
		return false
	}
	if rb == 0 && ra > 0 {
		return false
	}
	return true
}

// Period is a detected progress period: a maximal run of similar windows.
type Period struct {
	// FirstWindow and LastWindow are inclusive window indices.
	FirstWindow, LastWindow int
	// StartInstr and EndInstr bound the period in instructions.
	StartInstr, EndInstr uint64
	// WSS and ReuseRatio average the member windows.
	WSS        pp.Bytes
	ReuseRatio float64
	// Reuse is the categorized level (Table 2's low/med/high).
	Reuse pp.Reuse
	// Site is the dominant JMP site; LoopID the outermost containing
	// loop after Annotate (-1 before, or if unknown).
	Site   int
	LoopID int
}

// Instr returns the period length in instructions.
func (p Period) Instr() uint64 { return p.EndInstr - p.StartInstr }

// Demand converts the period's measurements into the pp_begin demand
// triple the application would declare.
func (p Period) Demand() pp.Demand {
	return pp.Demand{Resource: pp.ResourceLLC, WorkingSet: p.WSS, Reuse: p.Reuse}
}

// DetectPeriods implements the paper's repetition-finding scan: starting
// from each candidate window, if the next y/x windows are sufficiently
// similar they begin a period, which is then extended until a window with
// significantly different behaviour appears. Scanning resumes after the
// period (or one window later when no period starts).
func DetectPeriods(wins []WindowStats, cfg Config) ([]Period, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	need := int(cfg.MinPeriodInstr / cfg.WindowInstr)
	if need < 1 {
		need = 1
	}
	var periods []Period
	i := 0
	for i < len(wins) {
		if i+need > len(wins) {
			break
		}
		ok := true
		for j := i + 1; j < i+need; j++ {
			if !similar(&wins[i], &wins[j], cfg) {
				ok = false
				break
			}
		}
		if !ok {
			i++
			continue
		}
		// Extend.
		j := i + need
		for j < len(wins) && similar(&wins[i], &wins[j], cfg) {
			j++
		}
		periods = append(periods, summarize(wins[i:j]))
		i = j
	}
	return periods, nil
}

func summarize(wins []WindowStats) Period {
	p := Period{
		FirstWindow: wins[0].Index,
		LastWindow:  wins[len(wins)-1].Index,
		StartInstr:  wins[0].StartInstr,
		EndInstr:    wins[len(wins)-1].EndInstr,
		Site:        -1,
		LoopID:      -1,
	}
	var wss, reuse float64
	sites := make(map[int]int)
	for i := range wins {
		wss += float64(wins[i].WSS)
		reuse += wins[i].ReuseRatio
		if wins[i].TopSite >= 0 {
			sites[wins[i].TopSite]++
		}
	}
	n := float64(len(wins))
	p.WSS = pp.Bytes(wss / n)
	p.ReuseRatio = reuse / n
	p.Reuse = pp.ClassifyReuse(p.ReuseRatio)
	best := 0
	for site, cnt := range sites {
		if cnt > best || (cnt == best && (p.Site < 0 || site < p.Site)) {
			p.Site, best = site, cnt
		}
	}
	return p
}

// Profile runs the full §2.4 pipeline: window, detect, annotate against
// the binary's loop structure (bin may be nil).
func Profile(s memtrace.Stream, cfg Config, bin *Binary) ([]Period, error) {
	wins, err := Windows(s, cfg)
	if err != nil {
		return nil, err
	}
	periods, err := DetectPeriods(wins, cfg)
	if err != nil {
		return nil, err
	}
	if bin != nil {
		Annotate(periods, bin)
	}
	return periods, nil
}
