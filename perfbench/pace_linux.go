package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps a sender until shortly before its next request is due.
// It waits on a timerfd, which the network poller watches like a
// socket and the kernel fires within tens of microseconds. A Go timer
// would do when some thread is running, but when every thread is idle
// it waits in the poller's own timeout, which counts whole
// milliseconds: it fired half a millisecond late at the median, most
// of a 64-row batch's latency.
type pacer struct {
	f   *os.File
	rc  syscall.RawConn
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	f := os.NewFile(fd, "timerfd")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &pacer{f: f, rc: rc}, nil
}

// sleep returns after d, which must be positive.
func (p *pacer) sleep(d time.Duration) {
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))} // no interval, one expiry
	var errno syscall.Errno
	err := p.rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	})
	if err != nil || errno != 0 {
		time.Sleep(d)
		return
	}
	// A failed read only wakes the sender early: its yield loop still
	// holds the request until it is due.
	_, _ = p.f.Read(p.buf[:])
}

func (p *pacer) close() { p.f.Close() }
