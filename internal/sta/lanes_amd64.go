//go:build amd64

package sta

// The AVX2 lane passes of RunLightBatch are implemented in lanes_amd64.s.
// Each one re-times a single block of four lanes: its lane-contiguous
// slices start at the block's first lane and step w lanes per gate, and
// scale starts at the block's first die row.

//go:noescape
func forwardAVX2(arr, gd, scale, nom []float64, topo, predStart, preds []int32, n, w int)

//go:noescape
func backwardAVX2(tail, gd []float64, topo, succStart, succs []int32, succSetupPS []float64, w int)

//go:noescape
func dcritAVX2(dc, arr, tail []float64, n, w int)
