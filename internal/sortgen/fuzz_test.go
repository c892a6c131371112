package sortgen

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzSortgenVsSlicesSort drives arbitrary byte-derived inputs through
// both sortgen paths — the hybrid dynamic-n sorter on up to
// maxFuzzHybrid values and a composed fixed-n plan interpreter on the
// first ≤ maxFuzzPlan of them — and requires byte-equal output with
// slices.Sort for each.
func FuzzSortgenVsSlicesSort(f *testing.F) {
	// maxFuzzHybrid reaches past the hybrid's ninther and partial
	// insertion sort thresholds (50 elements); maxFuzzPlan bounds the
	// plans the target composes.
	const (
		maxFuzzHybrid = 512
		maxFuzzPlan   = 48
	)
	f.Add([]byte{})
	f.Add([]byte{7, 3, 9, 1, 0, 255, 128, 2, 2, 2, 64, 5})
	f.Add([]byte("sortgen differential fuzzing against slices.Sort"))
	// 128 ascending values with ties and one transposition, so the
	// ninther and the partial insertion sort run from the first input.
	vals := make([]uint16, 128)
	for i := range vals {
		vals[i] = uint16(i / 2)
	}
	vals[3], vals[90] = vals[90], vals[3]
	f.Add(encodeFuzzValues(vals))
	// Lengths on both sides of the leaf cutoff (16 is the longest leaf,
	// 17 the shortest partitioned range, 33 splits into leaves of both
	// kinds), each with distinct values and with ties.
	for _, n := range []int{maxLeafN, maxLeafN + 1, 2*maxLeafN + 1} {
		distinct := make([]uint16, n)
		ties := make([]uint16, n)
		for i := range distinct {
			distinct[i] = uint16((i * 7919) % 1009)
			ties[i] = uint16((i * 5) % 4)
		}
		f.Add(encodeFuzzValues(distinct))
		f.Add(encodeFuzzValues(ties))
	}
	// Compose is deterministic in n, so each length's plan is composed
	// once per process; the fuzzing engine calls the target serially.
	var sorters [maxFuzzPlan + 1]func([]int)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode signed 16-bit values.
		var in []int
		for i := 0; i+1 < len(data) && len(in) < maxFuzzHybrid; i += 2 {
			in = append(in, int(int16(binary.BigEndian.Uint16(data[i:]))))
		}
		want := slices.Clone(in)
		slices.Sort(want)

		got := slices.Clone(in)
		HybridSort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("HybridSort(%v) = %v, want %v", in, got, want)
		}

		in = in[:min(len(in), maxFuzzPlan)]
		want = slices.Clone(in)
		slices.Sort(want)
		if sorters[len(in)] == nil {
			p, err := Compose(len(in))
			if err != nil {
				t.Fatalf("Compose(%d): %v", len(in), err)
			}
			sorters[len(in)] = p.Sorter()
		}
		got = slices.Clone(in)
		sorters[len(in)](got)
		if !slices.Equal(got, want) {
			t.Fatalf("plan(%d).Sorter()(%v) = %v, want %v", len(in), in, got, want)
		}
	})
}

// encodeFuzzValues renders vals as the big-endian 16-bit input the
// fuzz target decodes.
func encodeFuzzValues(vals []uint16) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.BigEndian.AppendUint16(b, v)
	}
	return b
}
