//go:build linux || darwin

package colstore

import (
	"fmt"
	"os"
	"syscall"
)

// mmapFile maps the first size bytes of f read-only, returning the mapped
// region and its unmap function. Block decodes then read straight out of the
// OS page cache — no read syscalls, no copies for uncompressed payloads.
// openPath reads the file into memory instead on any error.
func mmapFile(f *os.File, size int) ([]byte, func() error, error) {
	if size <= 0 {
		return nil, nil, fmt.Errorf("colstore: cannot mmap %d bytes", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("colstore: mmap: %w", err)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
