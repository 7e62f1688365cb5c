// Package simfs models the file-system behaviours the paper measures:
// metadata latency (§6.8, Table 16) and cached-file reread bandwidth
// through read() and mmap() (§5.3, Table 5).
//
// Table 16's three orders of magnitude come from metadata durability
// policy, and the model makes that explicit: async file systems (ext2)
// touch only in-memory structures; logging file systems (XFS, JFS)
// append a forced log record; synchronous file systems (the 4BSD FFS
// family) perform scattered synchronous metadata writes, "a matter of
// tens of milliseconds" each.
//
// File data lives in a simulated page cache (a region of the machine's
// memory hierarchy), so rereads move through the same cache simulator
// as every other benchmark: a read() is a syscall plus a kernel-to-user
// bcopy; an mmap() read has no copy but pays a per-page fault cost.
package simfs

import (
	"fmt"

	"repro/internal/ptime"
	"repro/internal/sim"
	"repro/internal/simdisk"
	"repro/internal/simmem"
	"repro/internal/simos"
)

// Mode is the metadata durability policy.
type Mode int

const (
	// ModeAsync updates metadata in memory only (ext2 in 1995: "Linux
	// does not guarantee anything about the disk integrity").
	ModeAsync Mode = iota
	// ModeLogged appends a log record per metadata op (XFS, JFS).
	ModeLogged
	// ModeSync performs synchronous scattered metadata writes (UFS/FFS).
	ModeSync
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeAsync:
		return "async"
	case ModeLogged:
		return "logged"
	case ModeSync:
		return "sync"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config describes one file system.
type Config struct {
	// Name labels the file system ("EXT2FS", "UFS", "XFS", ...).
	Name string
	// Mode selects the metadata durability policy.
	Mode Mode
	// CreateCPUUS / DeleteCPUUS are the in-memory costs of the
	// directory and inode manipulation per operation.
	CreateCPUUS float64
	DeleteCPUUS float64
	// LogBytes is the log record size per metadata op (ModeLogged).
	// Default 512.
	LogBytes int64
	// LogEveryN forces the log to disk once per N metadata ops
	// (group commit); intermediate ops only append in memory.
	// Default 1 (force every op).
	LogEveryN int
	// SyncWritesPerCreate / PerDelete are the synchronous metadata
	// writes per op in ModeSync (directory block, inode, ...).
	// Defaults 2 and 1.
	SyncWritesPerCreate int
	SyncWritesPerDelete int
	// MmapSetupUS is the one-time cost of establishing a mapping.
	MmapSetupUS float64
	// MmapFaultUS is the per-page soft-fault cost during mmap reread;
	// this parameter is what separates Unixware's "outstanding mmap
	// reread rates" from Linux's ("Linux needs to do some work on the
	// mmap code").
	MmapFaultUS float64
	// PageSize is used for fault accounting (default 4096).
	PageSize int
	// ReadChunk is the read() buffer size (default 64K, chosen by the
	// paper "to minimize the kernel entry overhead while remaining
	// realistically sized").
	ReadChunk int
}

func (c Config) withDefaults() Config {
	if c.LogBytes <= 0 {
		c.LogBytes = 512
	}
	if c.LogEveryN <= 0 {
		c.LogEveryN = 1
	}
	if c.SyncWritesPerCreate <= 0 {
		c.SyncWritesPerCreate = 2
	}
	if c.SyncWritesPerDelete <= 0 {
		c.SyncWritesPerDelete = 1
	}
	if c.PageSize <= 0 {
		c.PageSize = 4096
	}
	if c.ReadChunk <= 0 {
		c.ReadChunk = 64 << 10
	}
	return c
}

type file struct {
	size  int64
	cache uint64 // page-cache region base; 0 when no data
}

// FS is one mounted simulated file system.
type FS struct {
	os   *simos.OS
	disk *simdisk.Disk
	cfg  Config

	files   map[string]*file
	metaOps int64 // metadata op counter for group commit

	createCPU ptime.Duration
	deleteCPU ptime.Duration
	mmapSetup ptime.Duration
	mmapFault ptime.Duration
}

// New mounts a file system backed by disk (may be nil for ModeAsync)
// and charging CPU time through os.
func New(o *simos.OS, disk *simdisk.Disk, cfg Config) (*FS, error) {
	cfg = cfg.withDefaults()
	if cfg.Mode != ModeAsync && disk == nil {
		return nil, fmt.Errorf("simfs: mode %v requires a disk", cfg.Mode)
	}
	return &FS{
		os:        o,
		disk:      disk,
		cfg:       cfg,
		files:     make(map[string]*file),
		createCPU: ptime.FromUS(cfg.CreateCPUUS),
		deleteCPU: ptime.FromUS(cfg.DeleteCPUUS),
		mmapSetup: ptime.FromUS(cfg.MmapSetupUS),
		mmapFault: ptime.FromUS(cfg.MmapFaultUS),
	}, nil
}

// Reset restores the freshly-mounted state: no files, and the group-
// commit metadata counter back at zero.
func (fs *FS) Reset() {
	fs.files = make(map[string]*file)
	fs.metaOps = 0
}

// Config returns the defaulted configuration.
func (fs *FS) Config() Config { return fs.cfg }

// NumFiles returns how many files exist.
func (fs *FS) NumFiles() int { return len(fs.files) }

// Create makes a zero-length file (Table 16's create op).
func (fs *FS) Create(name string) error {
	if name == "" {
		return fmt.Errorf("simfs: empty file name")
	}
	if _, ok := fs.files[name]; ok {
		return fmt.Errorf("simfs: %q exists", name)
	}
	fs.os.Syscall()
	fs.clock().Advance(fs.createCPU)
	switch fs.cfg.Mode {
	case ModeLogged:
		fs.metaOps++
		if fs.metaOps%int64(fs.cfg.LogEveryN) == 0 {
			fs.disk.LogWrite(fs.cfg.LogBytes)
		}
	case ModeSync:
		for i := 0; i < fs.cfg.SyncWritesPerCreate; i++ {
			fs.disk.MetadataWrite()
		}
	}
	fs.files[name] = &file{}
	return nil
}

// Delete removes a file (Table 16's delete op).
func (fs *FS) Delete(name string) error {
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("simfs: %q does not exist", name)
	}
	fs.os.Syscall()
	fs.clock().Advance(fs.deleteCPU)
	switch fs.cfg.Mode {
	case ModeLogged:
		fs.metaOps++
		if fs.metaOps%int64(fs.cfg.LogEveryN) == 0 {
			fs.disk.LogWrite(fs.cfg.LogBytes)
		}
	case ModeSync:
		for i := 0; i < fs.cfg.SyncWritesPerDelete; i++ {
			fs.disk.MetadataWrite()
		}
	}
	delete(fs.files, name)
	return nil
}

// WriteFile creates (if needed) a file of the given size whose data is
// resident in the page cache. Only the metadata cost is charged; the
// reread benchmarks (§5.3) deliberately measure cached reuse, not disk
// I/O ("The benchmark here is not an I/O benchmark in that no disk
// activity is involved").
func (fs *FS) WriteFile(name string, size int64) error {
	if size < 0 {
		return fmt.Errorf("simfs: negative size")
	}
	f, ok := fs.files[name]
	if !ok {
		if err := fs.Create(name); err != nil {
			return err
		}
		f = fs.files[name]
	}
	f.size = size
	if size > 0 {
		f.cache = fs.os.Mem().Alloc(size)
	}
	return nil
}

// Size returns a file's length.
func (fs *FS) Size(name string) (int64, error) {
	f, ok := fs.files[name]
	if !ok {
		return 0, fmt.Errorf("simfs: %q does not exist", name)
	}
	return f.size, nil
}

// ReadCached rereads n bytes of a cached file through the read()
// interface into the user buffer at userBuf: per chunk, one syscall and
// one bcopy from the kernel's page cache, then the user-level sum of
// the buffer ("Each buffer is summed as a series of integers in the
// user process"). Repeated identical rereads are charged from the
// hierarchy's pass memo (simmem.Hierarchy.Repeat).
func (fs *FS) ReadCached(name string, userBuf uint64, off, n int64) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("simfs: %q does not exist", name)
	}
	if off < 0 || n < 0 || off+n > f.size {
		return fmt.Errorf("simfs: read [%d,%d) outside %q (size %d)", off, off+n, name, f.size)
	}
	mem := fs.os.Mem()
	chunk := int64(fs.cfg.ReadChunk)
	key := simmem.Key{Owner: f, Args: [6]uint64{f.cache, userBuf, uint64(off), uint64(n), uint64(chunk)}}
	mem.Repeat(key, 3*n, func() {
		for p := off; p < off+n; p += chunk {
			c := chunk
			if rem := off + n - p; rem < c {
				c = rem
			}
			fs.os.Syscall()
			mem.StreamCopy(f.cache+uint64(p), userBuf, c)
			mem.StreamRead(userBuf, c)
		}
	})
	return nil
}

// MmapRead rereads n bytes of a cached file through a fresh mapping:
// one setup charge, then per-page soft faults plus a zero-copy
// streaming sum of the file pages themselves.
func (fs *FS) MmapRead(name string, off, n int64) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("simfs: %q does not exist", name)
	}
	if off < 0 || n < 0 || off+n > f.size {
		return fmt.Errorf("simfs: mmap read [%d,%d) outside %q (size %d)", off, off+n, name, f.size)
	}
	fs.os.Syscall() // mmap
	fs.clock().Advance(fs.mmapSetup)
	pages := (n + int64(fs.cfg.PageSize) - 1) / int64(fs.cfg.PageSize)
	fs.clock().Advance(fs.mmapFault.Mul(pages))
	fs.os.Mem().StreamRead(f.cache+uint64(off), n)
	fs.os.Syscall() // munmap
	return nil
}

func (fs *FS) clock() *sim.Clock { return fs.os.Mem().ClockHandle() }
