package main

import (
	"testing"
)

// The load generator must add no allocations of its own, so that
// allocs_per_op and alloc_bytes_per_op count the library only. Every
// generator loop body is library calls wrapped in spans, preceded by a
// prepare step (sizes, stamps) and followed by a check step (verification).
// These tests pin the spans, prepare and check at zero allocations per
// operation; what is left of a loop body is the library.

func mustSetup(t *testing.T, sc scenario) {
	t.Helper()
	if err := sc.setup(&phases{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sc.teardown(); err != nil {
			t.Error(err)
		}
	})
}

func wantNoAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(200, f); n != 0 {
		t.Errorf("%s allocates %v objects per operation, want 0", what, n)
	}
}

func TestSpanRecorderAllocatesNothing(t *testing.T) {
	tr := newTracer()
	b := tr.buf("test", 8*300)
	tr.enable(true)
	wantNoAllocs(t, "recording an op with children", func() {
		root := b.beginOp(kPeer, 1)
		h := b.begin(kBeginUnpacking)
		b.end(h)
		b.relabel(root, 2)
		h = b.begin(kPackCheaper)
		b.end(h)
		b.end(root)
	})
	var off *spanBuf
	wantNoAllocs(t, "the untraced fast path", func() { off.end(off.begin(kOp)) })
	if b.dropped != 0 {
		t.Errorf("%d spans dropped from a buffer sized for them", b.dropped)
	}
}

func TestGeneratorsAllocateNothing(t *testing.T) {
	cfg := config{seed: 11, scale: 0.01}
	tr := newTracer()
	p := params{cfg: cfg, tr: tr, tracedUnits: 4}

	pp := newPingpong(1<<10, 127)(p).(*pingpong)
	mustSetup(t, pp)
	i := 0
	wantNoAllocs(t, "pingpong prepare+check", func() {
		for _, l := range pp.lanes {
			sz := pp.prepare(l, i)
			copy(l.rhdr, l.hdr)
			copy(l.rbody, l.body)
			if !pp.check(l, sz, sz, verifySparse) || !pp.check(l, sz, sz, verifyFull) {
				t.Fatal("pingpong check rejects its own payload")
			}
		}
		i++
	})

	fw := newFwdBulk(p).(*fwdBulk)
	mustSetup(t, fw)
	op := uint32(0)
	wantNoAllocs(t, "fwd_bulk stamp+check", func() {
		for _, e := range fw.ends {
			sz := e.sizes[int(op)%sizeTableLen]
			stamp(e.payload, op)
			copy(e.recv, e.payload)
			if !fw.check(e, e.src, sz, op, verifySparse) {
				t.Fatal("fwd_bulk check rejects its own payload")
			}
		}
		op++
	})

	llm := newLLMLossy(p).(*llmLossy)
	mustSetup(t, llm)
	wantNoAllocs(t, "llm_lossy stamp+check", func() {
		for _, r := range llm.ranks {
			stampBlocks(r.moeIn, r.moeSend, op)
			stampBlocks(r.moeWant, r.moeRecv, op)
			stamp(r.kvIn, op)
			stamp(r.incIn, op)
			if !sameBytes(r.kvIn, r.kvIn, verifySparse) || !sameBytes(r.moeWant, r.moeWant, verifyFull) {
				t.Fatal("sameBytes rejects identical buffers")
			}
		}
		op++
	})

	as := newAsync10k(p).(*async10k)
	mustSetup(t, as)
	wantNoAllocs(t, "async_10k prepare+check", func() {
		as.prepare()
		for _, dst := range as.dsts {
			copy(dst, as.payload)
		}
		if as.check() != 0 {
			t.Fatal("async_10k check rejects its own payload")
		}
	})
}

// TestVerifierCatchesDamage checks both comparison modes on the bytes they
// promise to look at.
func TestVerifierCatchesDamage(t *testing.T) {
	want := make([]byte, 64<<10)
	fillPattern(want, 11, 1)
	for _, off := range []int{0, 63, sparseStride, len(want) - 1} {
		got := append([]byte(nil), want...)
		got[off] ^= 1
		if sameBytes(got, want, verifySparse) {
			t.Errorf("sparse compare misses a flipped byte at %d", off)
		}
	}
	got := append([]byte(nil), want...)
	got[sparseStride+100] ^= 1
	if sameBytes(got, want, verifyFull) {
		t.Errorf("full compare misses a flipped byte between samples")
	}
	if !sameBytes(want, want, verifySparse) || sameBytes(want[:10], want[:11], verifyFull) {
		t.Errorf("sameBytes on equal / different-length buffers")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.1, 14}, {0.5, 30}, {1, 50}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if quantile(nil, 0.1) != 0 {
		t.Errorf("quantile of nothing is not 0")
	}
}
