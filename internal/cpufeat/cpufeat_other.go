//go:build !amd64

package cpufeat

func probe() (avx2, fma bool) { return false, false }
