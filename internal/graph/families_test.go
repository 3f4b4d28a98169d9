package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestFamiliesWellFormed: every campaign family is connected, has unique
// scrambled identities and pairwise-distinct weights, and is deterministic
// in the seed.
func TestFamiliesWellFormed(t *testing.T) {
	const n, seed = 128, int64(7)
	for _, fam := range Families() {
		g, err := ByFamily(fam, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != n {
			t.Errorf("family %s seed %d: n=%d want %d", fam, seed, g.N(), n)
		}
		if !g.Connected() {
			t.Errorf("family %s seed %d: not connected", fam, seed)
		}
		if !g.HasDistinctWeights() {
			t.Errorf("family %s seed %d: duplicate weights", fam, seed)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("family %s seed %d: %v", fam, seed, err)
		}
		g2, err := ByFamily(fam, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !sameEdges(g, g2) {
			t.Errorf("family %s seed %d: not deterministic in the seed", fam, seed)
		}
		g3, err := ByFamily(fam, n, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		if sameEdges(g, g3) {
			t.Errorf("family %s: seeds %d and %d produce identical graphs", fam, seed, seed+1)
		}
	}
	if _, err := ByFamily("no-such-family", n, seed); err == nil {
		t.Error("unknown family name did not error")
	}
}

func sameEdges(a, b *Graph) bool {
	if a.M() != b.M() {
		return false
	}
	for e := 0; e < a.M(); e++ {
		ea, eb := a.Edge(e), b.Edge(e)
		if ea.U != eb.U || ea.V != eb.V || ea.W != eb.W {
			return false
		}
	}
	return true
}

// TestPowerLawHeavyTail: preferential attachment must produce hubs — a max
// degree well above the attachment count, unlike the uniform random family.
func TestPowerLawHeavyTail(t *testing.T) {
	const n, attach, seed = 256, 3, int64(5)
	g := PowerLaw(n, attach, seed)
	if g.MaxDegree() <= 3*attach {
		t.Errorf("seed %d: max degree %d shows no heavy tail (attach=%d)", seed, g.MaxDegree(), attach)
	}
}

// TestHighGirthBound: every cycle of the high-girth family is at least the
// requested girth (checked exactly: shortest cycle through each edge).
func TestHighGirthBound(t *testing.T) {
	const n, girth, seed = 96, 6, int64(9)
	g := HighGirth(n, 2*n, girth, seed)
	if g.M() <= n-1 {
		t.Fatalf("seed %d: no chords were accepted (m=%d)", seed, g.M())
	}
	if got := exactGirth(g); got < girth {
		t.Errorf("seed %d: girth %d < requested %d", seed, got, girth)
	}
}

// exactGirth computes the girth by finding, per edge, the shortest
// alternative path between its endpoints with the edge itself removed.
func exactGirth(g *Graph) int {
	best := -1
	for e := 0; e < g.M(); e++ {
		ed := g.Edge(e)
		d := distanceAvoiding(g, ed.U, ed.V, e)
		if d >= 0 && (best < 0 || d+1 < best) {
			best = d + 1
		}
	}
	return best
}

func distanceAvoiding(g *Graph, u, v, skip int) int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[u] = 0
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, h := range g.Ports(x) {
			if h.Edge == skip || dist[h.Peer] >= 0 {
				continue
			}
			dist[h.Peer] = dist[x] + 1
			if h.Peer == v {
				return dist[h.Peer]
			}
			queue = append(queue, h.Peer)
		}
	}
	return -1
}

// TestCorruptedMSTGenerator: k=0 reproduces the MST; each edit strictly
// increases total weight (so k ≥ 1 is certifiably non-minimal); output is
// always spanning; and Generate is deterministic in (k, seed) alone.
func TestCorruptedMSTGenerator(t *testing.T) {
	const seed = int64(13)
	g := RandomConnected(96, 3*96, seed)
	gen, err := NewCorruptedMSTGenerator(g)
	if err != nil {
		t.Fatal(err)
	}
	mst := gen.MST()
	t0, err := gen.Generate(0, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(t0) != len(mst) {
		t.Fatalf("seed %d: k=0 tree has %d edges, MST has %d", seed, len(t0), len(mst))
	}
	for i := range mst {
		if t0[i] != mst[i] {
			t.Fatalf("seed %d: k=0 does not reproduce the MST", seed)
		}
	}
	prev := MSTWeight(g, mst)
	for _, k := range []int{1, 2, 4, 8, 16, 24} {
		tree, err := gen.Generate(k, seed)
		if err != nil {
			t.Fatalf("seed %d k=%d: %v", seed, k, err)
		}
		if !IsSpanningTree(g, tree) {
			t.Fatalf("seed %d k=%d: not a spanning tree", seed, k)
		}
		if IsMST(g, tree, ByWeight(g)) {
			t.Fatalf("seed %d k=%d: still minimal", seed, k)
		}
		w := MSTWeight(g, tree)
		if w <= prev {
			t.Fatalf("seed %d k=%d: weight %d did not increase (prev %d)", seed, k, w, prev)
		}
		prev = w
		again, err := gen.Generate(k, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tree {
			if tree[i] != again[i] {
				t.Fatalf("seed %d k=%d: Generate is not deterministic in (k, seed)", seed, k)
			}
		}
	}
	other, err := gen.Generate(4, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := gen.Generate(4, seed)
	same := len(other) == len(base)
	for i := 0; same && i < len(base); i++ {
		same = other[i] == base[i]
	}
	if same {
		t.Errorf("seeds %d and %d produced identical k=4 corruptions", seed, seed+1)
	}
}

// TestCorruptedMSTGeneratorSaturates: a tree-only graph admits no cycle
// edit — Generate must fail loudly, not return the MST as "corrupted".
func TestCorruptedMSTGeneratorSaturates(t *testing.T) {
	g := Path(16, 3)
	gen, err := NewCorruptedMSTGenerator(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Generate(1, 1); err == nil {
		t.Fatal("saturated generator returned a tree without error")
	}
}

// graphDigest hashes a graph's node IDs and its edges (U V W, in index
// order): two graphs with the same digest are byte-identical as generator
// output.
func graphDigest(g *Graph) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put(int64(g.N()))
	for v := 0; v < g.N(); v++ {
		put(int64(g.ID(v)))
	}
	put(int64(g.M()))
	for _, e := range g.Edges() {
		put(int64(e.U))
		put(int64(e.V))
		put(int64(e.W))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestHighGirthGolden pins HighGirth's output byte for byte: the digests
// were recorded from the generator before its chord screening was made
// allocation-free, so any change in which chords are accepted shows here.
// The n=64 graphs are also checked to have girth ≥ 6.
func TestHighGirthGolden(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
		want string
	}{
		{64, 1, "108f18449ea589d385cbce4c1337e1cc721882934851ceb34a5fffbb18a681d3"},
		{64, 2, "db3aaaa87447a35c8a41d587b71fd27dda32eeaf013fde2fe84a3aca67a18db8"},
		{64, 3, "c33371c36664682354561b0537692c9885d25eed39ec0320710e3d4e16464414"},
		{1000, 1, "6c5ad50560479e71f990d3a28e885bbd8cbb56e541a23edce8df6ff46ee66733"},
		{1000, 2, "25977ce952d6cc4db95e5536ba8ccbb57eaab88e0e9969700f375f7319575150"},
		{1000, 3, "ae76cc8dbecdea11be330bd039bd717a6d380e70cfc353d351ab216537246107"},
		{4096, 1, "03663fee72b323567edd8952d49ce4880b70345581ee64347ba75b892d8c9281"},
		{4096, 2, "387915ecbaf300f521b8ec9be416894ac5a36d57f6a7a2d3166784354a06d2cd"},
		{4096, 3, "d6831fca0fb3324a26ebd2c364969238991c50d1010c3ef83676a83b7ebf64d6"},
	} {
		g := HighGirth(tc.n, 2*tc.n, 6, tc.seed)
		if got := graphDigest(g); got != tc.want {
			t.Errorf("n=%d seed %d: digest %s, want %s", tc.n, tc.seed, got, tc.want)
		}
		if tc.n == 64 {
			if girth := exactGirth(g); girth < 6 {
				t.Errorf("n=%d seed %d: girth %d < 6", tc.n, tc.seed, girth)
			}
		}
	}
}

// TestByFamilySmallSizes: ByFamily never panics; for every family and
// n = 1…8 it either returns a well-formed n-node graph or an error, and a
// non-positive n is an error for every family.
func TestByFamilySmallSizes(t *testing.T) {
	for _, fam := range Families() {
		for n := -1; n <= 8; n++ {
			t.Run(fmt.Sprintf("%s/n=%d", fam, n), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic: %v", r)
					}
				}()
				g, err := ByFamily(fam, n, 1)
				if n < 1 {
					if err == nil {
						t.Fatal("no error for a non-positive size")
					}
					return
				}
				if err != nil {
					return
				}
				if g.N() != n || !g.Connected() {
					t.Errorf("n=%d connected=%v, want n=%d connected", g.N(), g.Connected(), n)
				}
				if err := g.Validate(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
