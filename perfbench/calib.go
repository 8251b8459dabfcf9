package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The reference unit is a fixed piece of work of the same kind as the
// daemon's request handling (JSON decode and encode of offer-shaped
// documents, map inserts and lookups, sorting, number formatting, fresh
// allocations), written against the standard library only, so no change
// to the program under test changes it. A calibrator process runs it on
// the daemon's CPU between requests; how long it takes says how fast
// that CPU is at that moment on a shared host, and the request metrics
// are scaled by it (see gate).

// refDoc is the shape of one reference document.
type refDoc struct {
	ID       string       `json:"id"`
	Owner    string       `json:"owner"`
	Earliest time.Time    `json:"earliest_start"`
	Latest   time.Time    `json:"latest_start"`
	Slices   []refProfile `json:"slices"`
}

type refProfile struct {
	Minutes int     `json:"minutes"`
	Min     float64 `json:"min_energy"`
	Max     float64 `json:"max_energy"`
}

// refDocs is the fixed input of the reference unit.
func refDocs() [][]byte {
	docs := make([][]byte, 24)
	t := time.Date(2012, 6, 3, 0, 0, 0, 0, time.UTC)
	for i := range docs {
		d := refDoc{ID: fmt.Sprintf("ref-%04d", i), Owner: fmt.Sprintf("owner-%02d", i%7),
			Earliest: t.Add(time.Duration(i) * 15 * time.Minute), Latest: t.Add(time.Duration(i+4) * 15 * time.Minute)}
		for k := 0; k < 2+i%7; k++ {
			lo := 0.1 + float64((i*7+k*3)%10)/10
			d.Slices = append(d.Slices, refProfile{Minutes: 15, Min: lo, Max: lo + float64(k%5)/4})
		}
		docs[i], _ = json.Marshal(d)
	}
	return docs
}

// refUnit runs the reference unit once and returns a value derived from
// all of its results, so none of the work can be optimised away.
func refUnit(docs [][]byte) int {
	byID := make(map[string]*refDoc, len(docs))
	var out []byte
	for _, raw := range docs {
		d := &refDoc{}
		if err := json.Unmarshal(raw, d); err != nil {
			panic(err)
		}
		byID[d.ID] = d
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	n := 0
	for _, id := range ids {
		d := byID[id]
		var sum float64
		for _, s := range d.Slices {
			sum += (s.Min + s.Max) / 2
		}
		out = strconv.AppendFloat(out[:0], sum, 'g', -1, 64)
		b, err := json.Marshal(d)
		if err != nil {
			panic(err)
		}
		n += len(b) + len(out)
	}
	return n
}

// calibratorMain is the calibrator process: for every byte read from
// standard input it runs the reference unit once and writes the CPU time
// that took, in nanoseconds, as 8 little-endian bytes. The unit runs as
// the daemon's requests do, on whatever state the CPU's caches are in
// after idling or serving the daemon; timing it warm instead (after an
// untimed run) made the request metrics spread more from run to run. The
// garbage collector runs only between calibrations, outside the timing.
func calibratorMain() int {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	debug.SetGCPercent(-1)
	docs := refDocs()
	in := bufio.NewReader(os.Stdin)
	var buf [8]byte
	sink := 0
	for i := 0; ; i++ {
		if _, err := in.ReadByte(); err != nil {
			if err == io.EOF {
				return sink & 0 // sink keeps the work observable
			}
			return 1
		}
		if i%16 == 0 {
			runtime.GC()
		}
		t0 := threadCPU()
		sink += refUnit(docs)
		binary.LittleEndian.PutUint64(buf[:], uint64(threadCPU()-t0))
		if _, err := os.Stdout.Write(buf[:]); err != nil {
			return 1
		}
	}
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calibrator is the driver's handle on a running calibrator process.
type calibrator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out io.ReadCloser
}

// startCalibrator starts the calibrator on cpu: this binary with
// -calibrate, pinned with taskset.
func startCalibrator(cpu int) (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("taskset", "-c", strconv.Itoa(cpu), self, "-calibrate")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	c := &calibrator{cmd: cmd}
	if c.in, err = cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if c.out, err = cmd.StdoutPipe(); err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return c, nil
}

// measure runs one calibration and returns its CPU time in microseconds.
func (c *calibrator) measure() (float64, error) {
	if _, err := c.in.Write([]byte{1}); err != nil {
		return 0, err
	}
	var buf [8]byte
	if _, err := io.ReadFull(c.out, buf[:]); err != nil {
		return 0, err
	}
	return float64(binary.LittleEndian.Uint64(buf[:])) / 1e3, nil
}

// stop closes the calibrator's input, which ends it, and waits for it.
func (c *calibrator) stop() {
	if c == nil {
		return
	}
	c.in.Close()
	done := make(chan struct{})
	go func() { _ = c.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
	}
}
