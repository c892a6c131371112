package service

import (
	"testing"

	"sortsynth/internal/enum"
)

// TestCacheKeyGolden pins the content address of representative
// production keys: the enum configs a request can name, the reduced key
// of a non-enum backend, and a generated sorter's key. Every persisted
// artifact — disk-tier entries, baked universes — is filed under these
// hashes, so a change to the option surface or the canonical writer
// that moves one silently orphans the stores. Moving a key on purpose
// means bumping kcache.KeyVersion and updating this table.
func TestCacheKeyGolden(t *testing.T) {
	s, err := New(Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	m2 := 2
	cases := []struct {
		name string
		req  synthesizeRequest
		want string
	}{
		{"best/shortest", synthesizeRequest{N: 3},
			"f1817812a41eec214b8a26fceead56c14d310bb2e3d29ca06b56ce18be194953"},
		{"best/fastest", synthesizeRequest{N: 3, Objective: "fastest"},
			"21827c63d8411fab75ec0b99226c10ed42ca4e005df3dd2a010f2fd849fb2a2b"},
		{"best/balanced", synthesizeRequest{ISA: "minmax", N: 4, Objective: "balanced"},
			"66fdae5e519709fec6177307531e61235af949c7480c6e90173f1bd97c9636f6"},
		{"best/duplicate-safe", synthesizeRequest{N: 4, MaxLen: 20, DuplicateSafe: true},
			"1e11cf55974ecec343d79d01fe7bbdb1733e4acbbfe2180b297a54b2ec7039e7"},
		{"best/all", synthesizeRequest{N: 3, All: true},
			"c019011bce5e7ff4bfa8de69e7591baa0a9db1684197cb20572064b1f0ba27a9"},
		{"best/all-capped", synthesizeRequest{ISA: "minmax", N: 3, All: true, MaxSolutions: 50},
			"455fc6807078eefe780efbf9320163f82999425c74a75be9566dc1cebf8acd20"},
		{"base", synthesizeRequest{N: 3, Config: "base"},
			"c21b3f95151446c60aeed27e2fc9f6f54b4860c41cc83a314d4aa27eacdd40a7"},
		{"dijkstra", synthesizeRequest{N: 3, Config: "dijkstra"},
			"c21b3f95151446c60aeed27e2fc9f6f54b4860c41cc83a314d4aa27eacdd40a7"},
		{"distmax", synthesizeRequest{N: 3, Config: "distmax"},
			"80d9ebbbde2363bc5901d7fcfb5e04872943d568ba274144bbabd337a315d8c4"},
		{"distmax/m2", synthesizeRequest{ISA: "minmax", N: 3, M: &m2, Config: "distmax", MaxLen: 9},
			"9d417559c91ba3ef7799b0107b1643c209bf7ad4ff3e82b85f522ba7de8925b5"},
		{"smt", synthesizeRequest{N: 3, Backend: "smt"},
			"7852d284db91cc5a3593bcc617d7289ce9d4c96d8546d49dfe1df31d88712b50"},
		{"stoke/seeded", synthesizeRequest{ISA: "minmax", N: 4, Backend: "stoke", Seed: 7},
			"835a707b354be4333611e0b0c373c9bf32157521e069ed284c3aadcedb726ee6"},
	}
	for _, tc := range cases {
		p, err := s.prepareSynthesize(&tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if p.hash != tc.want {
			t.Errorf("%s: key moved\n got %s\nwant %s\ncanonical %q", tc.name, p.hash, tc.want, p.key.Canonical())
		}
	}

	for _, tc := range []struct {
		name string
		n    int
		elem string
		obj  enum.Objective
		want string
	}{
		{"sortgen/fastest", 13, "int", enum.ObjectiveFastest, "f23ba34b6ee2986a055b9ec7a94581c8bdfad0a6e97e6aa0379ba89e4dee121a"},
		{"sortgen/shortest", 5, "uint32", enum.ObjectiveShortest, "7821bb7703f4a7c4b46492c7734f6dc2dd167ed914727eab741ab174447385f0"},
	} {
		k := sortgenKey(tc.n, tc.elem, tc.obj)
		if got := k.Hash(); got != tc.want {
			t.Errorf("%s: key moved\n got %s\nwant %s\ncanonical %q", tc.name, got, tc.want, k.Canonical())
		}
	}
}
