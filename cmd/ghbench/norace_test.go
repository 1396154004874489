//go:build !race

package main

// raceBuild reports a -race build; see race_test.go.
const raceBuild = false
