//go:build !amd64 || purego

package blas

import "repro/internal/mat"

// Without the amd64 assembly the Go tiles are the only path.
const useAVX = false

func ntQuads(alpha float64, a *mat.Matrix, pb *PackedB, c *mat.Matrix, lo, hi int) int { return lo }

func gemvQuads(alpha float64, a *mat.Matrix, x, y []float64) int { return 0 }
