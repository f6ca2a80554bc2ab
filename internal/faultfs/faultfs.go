// Package faultfs abstracts the filesystem operations the artifact store
// performs (internal/store) behind an interface with two implementations:
// a passthrough over package os, and a deterministic fault injector that
// fails scheduled operations with realistic error classes (ENOSPC, EIO,
// torn renames, short writes) or freezes the tree at a "crash here"
// sentinel so tests can reopen the exact directory state a killed process
// would leave behind. The injector is what turns the store's crash and
// corruption invariants ("never wrong answers, temp-file+rename commits,
// corrupt loads counted and skipped") from hand-waved properties into a
// systematically swept test surface — see internal/faultfs/replay for the
// kill-point enumeration harness and DESIGN.md §9 for the failure model.
package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// FS is the set of filesystem operations the artifact store uses. All
// paths are ordinary OS paths; implementations must be safe for
// concurrent use (the store commits on every calling goroutine).
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	ReadFile(path string) ([]byte, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	RemoveAll(path string) error
}

// File is the writable handle CreateTemp returns — the subset of *os.File
// the store's temp-file+sync+rename commit path touches.
type File interface {
	Name() string
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// ErrInjected is the sentinel every injected fault wraps. Callers use
// IsInjected (or errors.Is against this) to distinguish scheduled test
// faults from real filesystem failures, e.g. to feed a dedicated
// fault-injection counter.
var ErrInjected = errors.New("faultfs: injected fault")

// Injected error classes. Each wraps ErrInjected so one errors.Is check
// catches them all; ErrCrashed additionally marks operations refused
// because the tree is frozen at a crash sentinel.
var (
	ErrENOSPC  = fmt.Errorf("%w: no space left on device", ErrInjected)
	ErrEIO     = fmt.Errorf("%w: input/output error", ErrInjected)
	ErrCrashed = fmt.Errorf("%w: crashed (tree frozen)", ErrInjected)
)

// IsInjected reports whether err originates from a scheduled fault (any
// class, including the crash freeze) rather than the real filesystem.
func IsInjected(err error) bool {
	return errors.Is(err, ErrInjected)
}

// OS is the passthrough implementation over package os — the production
// filesystem. The zero value is ready to use.
type OS struct{}

func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(path string) error                     { return os.Remove(path) }
func (OS) RemoveAll(path string) error                  { return os.RemoveAll(path) }

func (OS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}
