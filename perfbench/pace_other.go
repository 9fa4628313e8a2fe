//go:build !linux

package main

import "time"

// pacer sleeps a sender until shortly before its next request is due;
// off Linux it is a plain Go sleep, whose lateness the report shows.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (*pacer) sleep(d time.Duration) { time.Sleep(d) }

func (*pacer) close() {}
