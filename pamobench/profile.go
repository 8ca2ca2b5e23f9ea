package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	goruntime "runtime"
	"strings"
)

// This file attributes CPU and allocation profile samples to the repo's
// packages. The CPU profile is read from the gzipped profile.proto that
// runtime/pprof writes, decoded with a minimal protobuf reader so the
// benchmark needs no dependency beyond the standard library; allocation
// samples come straight from runtime.MemProfile.

const repoPrefix = "repro/internal/"

// shares accumulates sample weight per layer: self goes to the innermost
// repro/internal/* frame of a stack, inclusive to every layer on it.
type shares struct {
	total   float64
	self    map[string]float64
	incl    map[string]float64
	mathBig float64 // any math/big frame on the stack
	gc      float64 // background GC work outside any repo frame
}

func newShares() *shares {
	return &shares{self: map[string]float64{}, incl: map[string]float64{}}
}

// layerOf maps a function name such as "repro/internal/mat.(*Matrix).Mul"
// to "mat"; ok is false outside repro/internal.
func layerOf(fn string) (string, bool) {
	if !strings.HasPrefix(fn, repoPrefix) {
		return "", false
	}
	rest := fn[len(repoPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// add attributes one sample; frames are innermost first.
func (s *shares) add(frames []string, w float64) {
	s.total += w
	seen := map[string]bool{}
	selfDone, big, gc, repo := false, false, false, false
	for _, fn := range frames {
		if strings.HasPrefix(fn, "math/big.") {
			big = true
		}
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") || strings.HasPrefix(fn, "runtime.bgscavenge") {
			gc = true
		}
		l, ok := layerOf(fn)
		if !ok {
			continue
		}
		repo = true
		if !selfDone {
			s.self[l] += w
			selfDone = true
		}
		if !seen[l] {
			s.incl[l] += w
			seen[l] = true
		}
	}
	if big {
		s.mathBig += w
	}
	if gc && !repo {
		s.gc += w
	}
}

func (s *shares) pct(v float64) float64 {
	if s.total == 0 {
		return 0
	}
	return 100 * v / s.total
}

// cpuShares decodes a CPU profile and attributes its cpu-nanosecond values.
func cpuShares(gz []byte) (*shares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	sh := newShares()
	vi := p.sampleTypes - 1 // the last value is cpu nanoseconds
	for _, smp := range p.samples {
		if vi < 0 || vi >= len(smp.values) {
			continue
		}
		var frames []string
		for _, id := range smp.locs {
			for _, fid := range p.locFuncs[id] {
				frames = append(frames, p.strings[p.funcName[fid]])
			}
		}
		sh.add(frames, float64(smp.values[vi]))
	}
	return sh, nil
}

type memKey [32]uintptr

// memSnapshot reads the cumulative allocation profile keyed by stack.
func memSnapshot() map[memKey]int64 {
	goruntime.GC() // the profile lags by up to two GC cycles
	n, _ := goruntime.MemProfile(nil, true)
	recs := make([]goruntime.MemProfileRecord, n+64)
	n, ok := goruntime.MemProfile(recs, true)
	for !ok {
		recs = make([]goruntime.MemProfileRecord, 2*len(recs))
		n, ok = goruntime.MemProfile(recs, true)
	}
	out := make(map[memKey]int64, n)
	for _, r := range recs[:n] {
		out[r.Stack0] += r.AllocBytes
	}
	return out
}

// allocShares attributes the bytes allocated between two snapshots.
func allocShares(before, after map[memKey]int64) *shares {
	sh := newShares()
	for k, b := range after {
		d := b - before[k]
		if d <= 0 {
			continue
		}
		var pcs []uintptr
		for _, pc := range k {
			if pc == 0 {
				break
			}
			pcs = append(pcs, pc)
		}
		var frames []string
		it := goruntime.CallersFrames(pcs)
		for {
			f, more := it.Next()
			frames = append(frames, f.Function)
			if !more {
				break
			}
		}
		sh.add(frames, float64(d))
	}
	return sh
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	sampleTypes int
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcName    map[uint64]int64    // function id -> string table index
	strings     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

var errTruncated = errors.New("truncated protobuf")

// pbuf walks one protobuf message.
type pbuf struct {
	b []byte
	i int
}

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if p.i >= len(p.b) {
			return 0, errTruncated
		}
		c := p.b[p.i]
		p.i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("bad varint")
}

// field reads the next field: its number, wire type, varint value (wire
// type 0) or payload (wire type 2). Fixed-width fields are skipped.
func (p *pbuf) field() (num int, wt int, v uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = p.varint()
	case 1:
		p.i += 8
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)-p.i) < n {
				return 0, 0, 0, nil, errTruncated
			}
			payload = p.b[p.i : p.i+int(n)]
			p.i += int(n)
		}
	case 5:
		p.i += 4
	default:
		err = fmt.Errorf("wire type %d", wt)
	}
	if p.i > len(p.b) {
		err = errTruncated
	}
	return num, wt, v, payload, err
}

// uints appends a repeated integer field that may be packed or not.
func uints(dst []uint64, wt int, v uint64, payload []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	q := &pbuf{b: payload}
	for q.i < len(q.b) {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	top := &pbuf{b: b}
	for top.i < len(top.b) {
		num, _, _, payload, err := top.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1:
			p.sampleTypes++
		case 2:
			s, err := decodeSample(payload)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4:
			if err := p.decodeLocation(payload); err != nil {
				return nil, err
			}
		case 5:
			if err := p.decodeFunction(payload); err != nil {
				return nil, err
			}
		case 6:
			p.strings = append(p.strings, string(payload))
		}
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name out of string table")
		}
	}
	return p, nil
}

func decodeSample(b []byte) (sample, error) {
	var s sample
	q := &pbuf{b: b}
	for q.i < len(q.b) {
		num, wt, v, payload, err := q.field()
		if err != nil {
			return s, err
		}
		switch num {
		case 1:
			if s.locs, err = uints(s.locs, wt, v, payload); err != nil {
				return s, err
			}
		case 2:
			var vs []uint64
			if vs, err = uints(nil, wt, v, payload); err != nil {
				return s, err
			}
			for _, x := range vs {
				s.values = append(s.values, int64(x))
			}
		}
	}
	return s, nil
}

func (p *profile) decodeLocation(b []byte) error {
	var id uint64
	var fns []uint64
	q := &pbuf{b: b}
	for q.i < len(q.b) {
		num, _, v, payload, err := q.field()
		if err != nil {
			return err
		}
		switch num {
		case 1:
			id = v
		case 4: // Line{function_id = 1, line = 2}
			l := &pbuf{b: payload}
			for l.i < len(l.b) {
				ln, _, lv, _, err := l.field()
				if err != nil {
					return err
				}
				if ln == 1 {
					fns = append(fns, lv)
				}
			}
		}
	}
	p.locFuncs[id] = fns
	return nil
}

func (p *profile) decodeFunction(b []byte) error {
	var id uint64
	var name int64
	q := &pbuf{b: b}
	for q.i < len(q.b) {
		num, _, v, _, err := q.field()
		if err != nil {
			return err
		}
		switch num {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
	}
	p.funcName[id] = name
	return nil
}
