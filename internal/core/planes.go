package core

import (
	"math/bits"

	"spaceproc/internal/bitutil"
	"spaceproc/internal/dataset"
)

// This file is the plane-major (bit-sliced) voter kernel: the same
// Algorithm 1 vote as correctTemporalScratch, restructured so one uint64
// word carries one bit plane of all 64 readouts of a pixel and the
// per-voter AND / leave-one-out algebra runs as whole-word operations.
// The scalar pass in engine.go is the oracle; the differential tests and
// fuzz targets in planes_test.go assert the two are bit-identical.

// grow64 is growU32 for uint64 plane buffers.
func grow64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// planeVote runs one pixel's voter pass over its bit planes: planes[b] is
// bit plane b of the n-readout series (lane i = readout i, bits at or
// above n zero). It fills sc.cplanes with the per-plane candidate
// correction masks, stashes the window masks in sc.planeLSB/planeMSB, and
// returns the OR of all correction planes (bit i set = lane i has a
// nonzero candidate correction). The caller finalizes candidates with
// planeAccept, which applies the carry guard that needs scalar values.
//
// The caller must have validated lambda > 0, 3 <= n <= 64, upsilon >= 2.
func planeVote(sc *VoteScratch, planes []uint64, n, upsilon, lambda, width int, opt voteOptions) uint64 {
	half := upsilon / 2
	if half > n-1 {
		half = n - 1
	}
	phiOf := PruneIndex
	if opt.literalPhi {
		phiOf = PruneIndexLiteral
	}
	// Carve every plane workspace from one backing buffer: the whole
	// kernel costs a single allocation even on a cold scratch.
	need := half*width + (width + 1) + half + 2*half + width + 2*half
	sc.plane64 = grow64(sc.plane64, need)
	buf := sc.plane64
	sc.xplanes, buf = buf[:half*width:half*width], buf[half*width:]
	sc.hib, buf = buf[:width+1:width+1], buf[width+1:]
	sc.pms, buf = buf[:half:half], buf[half:]
	sc.voters64, buf = buf[:2*half:2*half], buf[2*half:]
	sc.cplanes, buf = buf[:width:width], buf[width:]
	subf, subb := buf[:half:half], buf[half:2*half:2*half]
	sc.vvals = growU32(sc.vvals, half)

	for d := 1; d <= half; d++ {
		// X_d plane b: bit i = bit b of vals[i] XOR vals[i+d], the shared
		// value set of the forward-d and backward-d ways.
		x := sc.xplanes[(d-1)*width : d*width]
		way := bitutil.LaneMask(n - d)
		for b := 0; b < width; b++ {
			p := planes[b]
			x[b] = (p ^ p>>uint(d)) & way
		}
		// The way cut-off Vval = CeilPow2(phi-th greatest XOR value) as an
		// order statistic over popcounts: 2^j >= that value iff fewer than
		// phi lanes hold an XOR value > 2^j, so Vval is 2^k for the
		// smallest such k. gt is built incrementally from a suffix OR of
		// the planes above j (any higher bit set => > 2^j) and a running OR
		// of the planes below j (bit j plus any lower bit => > 2^j).
		phi := phiOf(lambda, n-d)
		hib := sc.hib
		hib[width] = 0
		for b := width - 1; b >= 0; b-- {
			hib[b] = hib[b+1] | x[b]
		}
		var lo, pm uint64
		k := width
		for j := 0; j < width; j++ {
			gt := hib[j+1] | x[j]&lo
			if bits.OnesCount64(gt) < phi {
				k, pm = j, gt
				break
			}
			lo |= x[j]
		}
		if k == width {
			// The cut-off needs a power of two above the payload width.
			// For width 32 the scalar CeilPow2 overflows uint32 to 0,
			// un-pruning every nonzero voter; replicate that exactly.
			if width == 32 {
				sc.vvals[d-1] = 0
				pm = hib[0]
			} else {
				sc.vvals[d-1] = 1 << uint(width)
				pm = 0
			}
		} else {
			sc.vvals[d-1] = 1 << uint(k)
		}
		sc.pms[d-1] = pm
	}

	lsbMask, msbMask := windowMasks(sc.vvals[:half], width)
	if opt.staticWindows {
		lsbMask = bitutil.MaskAtOrAbove(opt.staticLSB, width)
		msbMask = bitutil.MaskAtOrAbove(opt.staticMSB, width)
	}
	if opt.disableQuorum {
		msbMask = 0
	}
	sc.planeLSB, sc.planeMSB = lsbMask, msbMask
	if opt.stats != nil {
		opt.stats.Series++
		opt.stats.WindowCBit = width - bitutil.OnesCount32(lsbMask)
	}

	// Prune in place: a pruned voter keeps voting with value 0 (killing
	// unanimity wherever another voter disagrees), exactly as the scalar
	// pass appends pruned() == 0 entries.
	for d := 1; d <= half; d++ {
		x := sc.xplanes[(d-1)*width : d*width]
		pm := sc.pms[d-1]
		for b := 0; b < width; b++ {
			x[b] &= pm
		}
	}

	// Eligibility: the scalar pass skips lanes with fewer than two
	// consultable neighbors. Count voter presence with two sequential
	// accumulators (a1 = >=1 voter, a2 = >=2 voters).
	var a1, a2 uint64
	for d := 1; d <= half; d++ {
		pf := bitutil.LaneMask(n - d)
		pb := pf << uint(d)
		a2 |= a1 & pf
		a1 |= pf
		a2 |= a1 & pb
		a1 |= pb
		subf[d-1] = ^pf
		subb[d-1] = ^pb
	}
	eligible := a2 & bitutil.LaneMask(n)

	// Vote plane by plane. Lane i's forward-d voter is X_d at lane i, its
	// backward-d voter X_d at lane i-d (the word shifted up by d). Lanes
	// where a voter does not exist are substituted with all-ones so absence
	// never vetoes the AND and never counts toward the leave-one-out zero
	// tally — the word vote then equals the scalar vote over the present
	// voters only.
	vw := sc.voters64
	var anyC uint64
	for b := 0; b < width; b++ {
		sc.cplanes[b] = 0
		if lsbMask>>uint(b)&1 == 0 {
			continue
		}
		for d := 1; d <= half; d++ {
			xb := sc.xplanes[(d-1)*width+b]
			vw[2*(d-1)] = xb | subf[d-1]
			vw[2*(d-1)+1] = xb<<uint(d) | subb[d-1]
		}
		c := bitutil.VoteWords(vw)
		if msbMask>>uint(b)&1 == 1 {
			c |= bitutil.LeaveOneOutANDWords(vw)
		}
		c &= eligible
		sc.cplanes[b] = c
		anyC |= c
	}
	return anyC
}

// planeAccept applies the carry-propagation guard (and correction stats)
// to the candidate correction c at lane i against the scalar series vals,
// returning c if accepted and 0 if vetoed. The neighbor set and guard are
// byte-for-byte the scalar pass's (engine.go); only the candidate
// discovery differs.
func planeAccept(sc *VoteScratch, vals []uint32, i, half int, c uint32, opt voteOptions) uint32 {
	n := len(vals)
	neigh := sc.neigh[:0]
	for d := 1; d <= half; d++ {
		if i+d < n {
			neigh = append(neigh, vals[i+d])
		}
		if i-d >= 0 {
			neigh = append(neigh, vals[i-d])
		}
	}
	if !opt.disableCarryGuard {
		med := medianU32(neigh)
		before, after := dist32(vals[i], med), dist32(vals[i]^c, med)
		if after > before || before-after < c/2 {
			if opt.stats != nil {
				opt.stats.GuardRejected++
			}
			return 0
		}
	}
	if opt.stats != nil {
		opt.stats.Corrected++
		opt.stats.BitsWindowA += bitutil.OnesCount32(c & sc.planeMSB)
		opt.stats.BitsWindowB += bitutil.OnesCount32(c & sc.planeLSB &^ sc.planeMSB)
	}
	return c
}

// correctTemporalPlanes is the plane-major voter pass over a scalar
// series: it transposes vals into bit planes, votes all lanes at once, and
// finalizes only the (typically rare) candidate lanes. Bit-identical to
// correctTemporalScratch; vals must fit in width bits.
func correctTemporalPlanes(sc *VoteScratch, vals []uint32, upsilon, lambda, width int, opt voteOptions) []uint32 {
	n := len(vals)
	sc.corr = growU32(sc.corr, n)
	corr := sc.corr
	for i := range corr {
		corr[i] = 0
	}
	if lambda <= 0 || n < 3 || upsilon < 2 {
		return corr
	}
	lanes := &sc.lanes64
	for i, v := range vals {
		lanes[i] = uint64(v)
	}
	for i := n; i < 64; i++ {
		lanes[i] = 0
	}
	bitutil.TransposeBlock64x32(lanes, width)
	anyC := planeVote(sc, lanes[:width], n, upsilon, lambda, width, opt)
	if anyC == 0 {
		return corr
	}
	half := upsilon / 2
	if half > n-1 {
		half = n - 1
	}
	if cap(sc.neigh) < upsilon {
		sc.neigh = make([]uint32, 0, upsilon)
	}
	for m := anyC; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		c := bitutil.LaneValue(sc.cplanes[:width], i)
		corr[i] = planeAccept(sc, vals, i, half, c, opt)
	}
	return corr
}

// planeWorthIt reports whether the plane-major kernel beats the scalar
// pass for a series of n values at the given bit width. The plane
// kernel's cost scales with width (every plane word is touched whether
// its lanes vote or not) while the scalar kernel's scales with n, so
// short series lose the transpose bet: measured on the dev machine the
// crossover sits near n = width/2 (n ~ 9 at width 16, n ~ 14 at width
// 32), and below it the scalar pass is up to ~2x faster. The upper
// bound is the 64-lane transpose block.
func planeWorthIt(n, width int) bool {
	return 2*n >= width+4 && n <= 64
}

// correctTemporalAuto dispatches between the plane-major kernel and the
// scalar oracle: the plane path covers every series the block transpose
// holds and the cost model favors (planeWorthIt), scalar covers the
// rest and the explicit scalarOnly escape hatch.
func correctTemporalAuto(sc *VoteScratch, vals []uint32, upsilon, lambda, width int, opt voteOptions, scalarOnly bool) []uint32 {
	if !scalarOnly && planeWorthIt(len(vals), width) {
		return correctTemporalPlanes(sc, vals, upsilon, lambda, width, opt)
	}
	return correctTemporalScratch(sc, vals, upsilon, lambda, width, opt)
}

// PlaneCapable reports whether ProcessRange takes the plane-major path
// for stacks of the given depth: any depth the 64-lane transpose holds
// and the cost model favors at the voter's 16-bit width (see
// planeWorthIt), unless the configuration pins the scalar path or
// disables the pass outright.
func (a *AlgoNGST) PlaneCapable(depth int) bool {
	return !a.cfg.ScalarOnly && a.cfg.Sensitivity > 0 && planeWorthIt(depth, 16)
}

// ProcessRange implements SeriesPreprocessor: the voter pass over the
// flattened coordinate range [p0, p1) of s. When the depth is
// PlaneCapable the range streams 64 pixels at a time through a
// scratch-held plane-major window; otherwise it runs the per-series pass
// at each coordinate. Candidate corrections (the rare case) are finalized
// against the scalar series read straight from the frames; votes are
// computed against the original planes, so corrections do not cascade,
// and the gathered window is never scattered back — corrections XOR
// directly into the frames.
func (a *AlgoNGST) ProcessRange(s *dataset.Stack, p0, p1 int, sc *VoteScratch, stats *VoteStats) {
	if a.cfg.Sensitivity == 0 {
		return
	}
	if sc == nil {
		sc = new(VoteScratch)
	}
	n := s.Len()
	if p0, p1 = clampRange(s, p0, p1); p0 >= p1 {
		return
	}
	if !a.PlaneCapable(n) {
		processStackRangeScalar(a, s, p0, p1, sc, stats)
		return
	}
	const block = 64
	if sc.ps == nil || sc.ps.Depth != n {
		ps, err := dataset.NewPlaneStack(n, 16, block)
		if err != nil {
			processStackRangeScalar(a, s, p0, p1, sc, stats)
			return
		}
		sc.ps = ps
	}
	ps := sc.ps
	half := a.cfg.Upsilon / 2
	if half > n-1 {
		half = n - 1
	}
	if cap(sc.neigh) < a.cfg.Upsilon {
		sc.neigh = make([]uint32, 0, a.cfg.Upsilon)
	}
	for base := p0; base < p1; base += block {
		cnt := p1 - base
		if cnt > block {
			cnt = block
		}
		ps.Gather(s, base, cnt)
		for i := 0; i < cnt; i++ {
			collect := stats
			if a.tel != nil || a.log != nil {
				sc.stats = VoteStats{}
				collect = &sc.stats
			}
			opt := a.cfg.voteOptions(collect)
			anyC := planeVote(sc, ps.Planes(i), n, a.cfg.Upsilon, a.cfg.Sensitivity, 16, opt)
			if anyC != 0 {
				p := base + i
				sc.vals = growU32(sc.vals, n)
				vals := sc.vals
				for t, f := range s.Frames {
					vals[t] = uint32(f.Pix[p])
				}
				for m := anyC; m != 0; m &= m - 1 {
					t := bits.TrailingZeros64(m)
					c := bitutil.LaneValue(sc.cplanes[:16], t)
					if c = planeAccept(sc, vals, t, half, c, opt); c != 0 {
						s.Frames[t].Pix[p] ^= uint16(c)
					}
				}
			}
			if collect == &sc.stats {
				a.finishSeries(sc.stats, stats)
			}
		}
	}
}

// processStackRangeScalar runs p's per-series pass over the flattened
// coordinate range [p0, p1) of s: AlgoNGST's fallback when the plane path
// cannot serve the geometry, and the per-series oracle the differential
// tests hold every ProcessRange to.
func processStackRangeScalar(p SeriesPreprocessor, s *dataset.Stack, p0, p1 int, sc *VoteScratch, stats *VoteStats) {
	w := s.Width()
	if w == 0 {
		return
	}
	for i := p0; i < p1; i++ {
		x, y := i%w, i/w
		sc.rser = s.SeriesAtBuf(x, y, sc.rser)
		p.ProcessSeries(sc.rser, sc, stats)
		s.SetSeriesAt(x, y, sc.rser)
	}
}

// ProcessRange implements SeriesPreprocessor: the sequential in-place
// median sweep in frame-major order (whole rows of one frame at a time
// instead of a strided series gather per pixel). The scalar recurrence
// P(i) = median(P(i-1) smoothed, P(i), P(i+1) raw) reads only
// already-final values of frame i-1 and raw values of frames i and i+1,
// so the in-place frame-by-frame sweep needs no buffers at all and is
// bit-identical to the per-series pass, which likewise leaves series
// shorter than three untouched.
func (Median3) ProcessRange(s *dataset.Stack, p0, p1 int, sc *VoteScratch, stats *VoteStats) {
	n := s.Len()
	if p0, p1 = clampRange(s, p0, p1); n < 3 || p0 >= p1 {
		return
	}
	f0, f1, f2 := s.Frames[0].Pix, s.Frames[1].Pix, s.Frames[2].Pix
	for i := p0; i < p1; i++ {
		f0[i] = median3u16(f0[i], f1[i], f2[i])
	}
	for t := 1; t < n-1; t++ {
		a, b, c := s.Frames[t-1].Pix, s.Frames[t].Pix, s.Frames[t+1].Pix
		for i := p0; i < p1; i++ {
			b[i] = median3u16(a[i], b[i], c[i])
		}
	}
	a, b, c := s.Frames[n-3].Pix, s.Frames[n-2].Pix, s.Frames[n-1].Pix
	for i := p0; i < p1; i++ {
		c[i] = median3u16(a[i], b[i], c[i])
	}
}

// clampRange clips [p0, p1) to the flattened pixel range of s.
func clampRange(s *dataset.Stack, p0, p1 int) (int, int) {
	return max(p0, 0), min(p1, s.Width()*s.Height())
}

// majChunk is the pixel width of MajorityBit3's frame-major stack sweep:
// three rotating original-value buffers of this size replace the
// per-pixel series snapshot. 4096 pixels keeps the working set (3 x 8 KB)
// inside L1/L2 while amortizing the frame-pointer chasing.
const majChunk = 4096

// ProcessRange implements SeriesPreprocessor: the vote-against-original
// majority sweep in frame-major order. Because frame t's output consults
// the ORIGINAL frames t-1 and (at the reflected tail) n-3, three rotating
// chunk buffers carry the original values of frames t-2, t-1 and t; raw
// frames t+1 (and frame 2 at the head) are read live, before the sweep
// reaches them. Bit-identical to the per-series snapshot pass, including
// its no-op on series shorter than three.
func (MajorityBit3) ProcessRange(s *dataset.Stack, p0, p1 int, sc *VoteScratch, stats *VoteStats) {
	n := s.Len()
	if p0, p1 = clampRange(s, p0, p1); n < 3 || p0 >= p1 {
		return
	}
	if sc == nil {
		sc = new(VoteScratch)
	}
	if cap(sc.majA) < majChunk {
		sc.majA = make(dataset.Series, majChunk)
		sc.majB = make(dataset.Series, majChunk)
		sc.majC = make(dataset.Series, majChunk)
	}
	for base := p0; base < p1; base += majChunk {
		cnt := p1 - base
		if cnt > majChunk {
			cnt = majChunk
		}
		prev2, prev1, cur := sc.majA[:cnt], sc.majB[:cnt], sc.majC[:cnt]
		for t := 0; t < n; t++ {
			out := s.Frames[t].Pix[base : base+cnt]
			copy(cur, out)
			left := prev1 // original frame t-1
			if t == 0 {
				left = s.Frames[2].Pix[base : base+cnt] // P(0) = P(3), still raw
			}
			right := prev2 // original frame n-3 at the tail
			if t < n-1 {
				right = s.Frames[t+1].Pix[base : base+cnt] // raw, not yet voted
			}
			for i := 0; i < cnt; i++ {
				out[i] = bitutil.MajorityVote3(left[i], cur[i], right[i])
			}
			prev2, prev1, cur = prev1, cur, prev2
		}
	}
}

// finishSeries fans one series' staged counters out to the registry
// counters, the forensics logger, and the caller's collector (the tail of
// ProcessSeries, shared with the plane-major ProcessRange).
func (a *AlgoNGST) finishSeries(local VoteStats, stats *VoteStats) {
	if a.tel != nil {
		a.tel.add(local)
	}
	if a.log != nil && local.Corrected > 0 {
		a.logSeriesCorrected(local)
	}
	if stats != nil {
		stats.Add(local)
	}
}

// voteOptions lowers the configuration's ablation switches into the
// engine's option struct with the given stats collector.
func (c NGSTConfig) voteOptions(stats *VoteStats) voteOptions {
	return voteOptions{
		disableQuorum:     c.DisableQuorum,
		disableCarryGuard: c.DisableCarryGuard,
		literalPhi:        c.LiteralPhi,
		staticWindows:     c.StaticWindows,
		staticLSB:         c.StaticLSB,
		staticMSB:         c.StaticMSB,
		stats:             stats,
	}
}
