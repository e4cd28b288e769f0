//go:build race

package bncg_test

func init() { raceEnabled = true }
