//go:build !race

package middleware

const raceEnabled = false
