//go:build !amd64

package main

const fmaPath, fmaFlopsPerIter = "scalar", 8 * 2

func fmaLoop(n int, c *[2]float64) float64 { return fmaScalar(n, c) }
