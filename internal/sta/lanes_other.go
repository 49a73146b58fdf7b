//go:build !amd64

package sta

// The AVX2 lane passes do nothing off amd64; lanesAVX2 is false there, so
// RunLightBatch never calls them.

func forwardAVX2(arr, gd, scale, nom []float64, topo, predStart, preds []int32, n, w int) {}

func backwardAVX2(tail, gd []float64, topo, succStart, succs []int32, succSetupPS []float64, w int) {}

func dcritAVX2(dc, arr, tail []float64, n, w int) {}
