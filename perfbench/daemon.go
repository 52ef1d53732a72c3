package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"crowdpricing/internal/server"
	"crowdpricing/internal/wal"
)

// daemon is the pricing daemon served in-process on a real 127.0.0.1
// listener, wired the way cmd/priced wires it: default options, the
// campaign WAL opened, replayed and attached before serving.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	base string
	wlog *wal.Log
	done chan error
}

// bootDaemon starts a daemon. A non-empty walDir opens the campaign log
// there through fsys and replays it; wrap, when set, wraps the handler
// (traced runs record the daemon-side span there).
func bootDaemon(walDir string, fsys wal.FS, wrap func(http.Handler) http.Handler) (*daemon, error) {
	d := &daemon{srv: server.New(server.Options{}), done: make(chan error, 1)}
	if walDir != "" {
		wlog, err := d.srv.Campaigns().OpenWAL(walDir, wal.Options{FS: fsys})
		if err != nil {
			d.srv.Close()
			return nil, fmt.Errorf("opening the campaign log: %w", err)
		}
		begin := time.Now()
		if _, err := d.srv.Campaigns().ReplayWAL(context.Background(), wlog); err != nil {
			wlog.Close()
			d.srv.Close()
			return nil, fmt.Errorf("replaying the campaign log: %w", err)
		}
		wlog.SetReplayDuration(time.Since(begin))
		d.srv.AttachWAL(wlog)
		d.wlog = wlog
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	h := d.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d.hs = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	d.base = "http://" + ln.Addr().String()
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops serving, waits for the serve loop, and releases the
// engine, the campaign manager and the log.
func (d *daemon) close() error {
	var err error
	if d.hs != nil {
		err = d.hs.Close()
		if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	}
	d.srv.Close()
	if d.wlog != nil {
		if cerr := d.wlog.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// fsyncTimer wraps a wal.FS and times every Sync of the segments it
// creates: the group commit's fsync, which no request waits on but which
// competes with them for the disk and the CPU.
type fsyncTimer struct {
	wal.FS
	count atomic.Int64
	nanos atomic.Int64
}

func (f *fsyncTimer) Create(name string) (wal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, t: f}, nil
}

type timedFile struct {
	wal.File
	t *fsyncTimer
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.t.nanos.Add(int64(time.Since(start)))
	f.t.count.Add(1)
	return err
}

// copyDir copies the flat directory src into a fresh dst, so every boot
// replays the same log.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
