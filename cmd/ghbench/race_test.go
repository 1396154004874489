//go:build race

package main

// raceBuild reports a -race build, whose sync.Pool drops pooled items
// at random, so allocation rates measure nothing there.
const raceBuild = true
