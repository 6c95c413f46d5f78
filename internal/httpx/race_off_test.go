//go:build !race

package httpx

const raceEnabled = false
