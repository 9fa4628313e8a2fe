//go:build !amd64

package main

func cpuBrand() string { return "" }
