//go:build !linux && !darwin

package colstore

import (
	"errors"
	"os"
)

// mmapFile always fails on platforms without a wired-up mmap, so openPath
// reads every VTB file into memory whole — same bytes, same results.
func mmapFile(f *os.File, size int) ([]byte, func() error, error) {
	return nil, nil, errors.New("colstore: mmap unavailable on this platform")
}
