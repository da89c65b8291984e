//go:build race

package middleware

// raceEnabled reports a -race build, under which sync.Pool drops a
// quarter of what is put into it on purpose, so allocation gates over
// pooled state cannot hold.
const raceEnabled = true
