package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"cobrawalk/internal/rng"
)

// hashGraph feeds a graph's name, offsets and neighbours (little-endian)
// into h, so a digest pins every byte a .csrg store file or a sweep
// record derives from.
func hashGraph(h hash.Hash, g *Graph) {
	offsets, neighbors := g.CSR()
	h.Write([]byte(g.Name()))
	buf := make([]byte, 0, 8*len(offsets)+4*len(neighbors))
	for _, o := range offsets {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o))
	}
	for _, v := range neighbors {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	h.Write(buf)
}

// hashDraw feeds one generator call's outcome into h: the graph, or the
// error text when the call fails, then the next draw of its rng, which
// pins how many draws the call consumed.
func hashDraw(h hash.Hash, g *Graph, err error, rand *rng.Rand) {
	if err != nil {
		h.Write([]byte(err.Error()))
	} else {
		hashGraph(h, g)
	}
	h.Write(binary.LittleEndian.AppendUint64(nil, rand.Uint64()))
}

// TestRandomRegularGolden pins the generator's output byte for byte: the
// rng draw order (two Intn(live) probes per pairing step, the stall and
// restart rule) decides every graph the sweeps, the daemon and the graph
// store produce. The cases cover restarts ((6,2) seed 2, (10,3) seeds 2
// and 3, (16,4) seed 2, (400,257) seed 1), a row spanning the whole
// vertex set (64,63), degrees past 255, a point that exhausts its 200
// restarts (300,257) and a benchmark-sized sparse graph. The digests were
// recorded from the earlier Builder-based generator, so they also pin
// byte identity with graphs and store files it produced.
func TestRandomRegularGolden(t *testing.T) {
	cases := []struct {
		n, r  int
		seeds []uint64
		want  string
	}{
		{6, 2, []uint64{1, 2, 3, 4}, "f55e2aa334af137877f937f821851c4d9928ace3eea556d7e9d8230c22ab62ac"},
		{10, 3, []uint64{1, 2, 3}, "9400009e1eccf32e53e473ef9af6609c6c20a39103ace4000cb038b2b301f129"},
		{16, 4, []uint64{1, 2, 3}, "18ab838e3ffe1334b6c3a3b79245d10b778edc32621308e4cb0db80e1a700e02"},
		{64, 63, []uint64{1, 2}, "13aa386805d5337d818b9c30109474042a57ce17c5c6e0c0c9fda6d0828e4d5b"},
		{300, 257, []uint64{1}, "0b185ce76bda4642d747b6a0170df98644d17b20c757136574a6aa836d24cbe2"},
		{400, 257, []uint64{1, 2}, "613839ef6db4f9e6ef60fb1e8a659dd105fca4355d1f1a4ba720ea16e36071a8"},
		{1 << 16, 8, []uint64{1, 2, 3}, "2e203c549c37f1e13761ceeda894a2c40fe8bcac3a7c1fe18c43e5d6fdaac4c1"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n%d_r%d", tc.n, tc.r), func(t *testing.T) {
			h := sha256.New()
			for _, seed := range tc.seeds {
				rand := rng.New(seed)
				g, err := RandomRegular(tc.n, tc.r, rand)
				hashDraw(h, g, err, rand)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
	t.Run("connected_n128_r3", func(t *testing.T) {
		rand := rng.New(7)
		g, err := RandomRegularConnected(128, 3, rand)
		h := sha256.New()
		hashDraw(h, g, err, rand)
		const want = "262faf4837ddbc4d7e1d66ce74580e292f487b6e2154d57cfbe0f8d112573a08"
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("digest %s, want %s", got, want)
		}
	})
}

// TestRandomRegularTooLarge: sizes the pairing cannot hold are an error
// returned before any allocation, not a makeslice panic or an
// out-of-memory kill.
func TestRandomRegularTooLarge(t *testing.T) {
	cases := []struct {
		n, r     int
		byMemory bool // the limit is this machine's physical memory
	}{
		{math.MaxInt32 + 1, 8, false},       // past int32 vertex ids
		{math.MaxInt32 - 1, 1 << 16, false}, // n·r past 2·maxEdges arcs
		{2_000_000_000, 8, true},            // ~150 GB of pairing state
	}
	for _, tc := range cases {
		if mem, need := totalMemory(), uint64(8*tc.n*tc.r+12*tc.n); tc.byMemory && (mem == 0 || mem > need) {
			t.Logf("skipping n=%d r=%d: machine memory %d bytes is unknown or enough for it", tc.n, tc.r, mem)
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := RandomRegular(tc.n, tc.r, rng.New(1))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("RandomRegular(%d, %d) succeeded, want an error", tc.n, tc.r)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("RandomRegular(%d, %d) allocated %d bytes before failing", tc.n, tc.r, alloc)
		}
	}
}

func BenchmarkRandomRegular(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RandomRegular(1<<18, 8, rng.New(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}
