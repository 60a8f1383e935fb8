package kvstore

import "fmt"

// MemDisk is the in-memory Disk, the only one: contents are real bytes on
// the heap, and I/O time is charged through Hooks (the simulator's) instead
// of a physical device.
type MemDisk struct {
	segSize  int64
	segments map[int][]byte
	active   int
}

// NewMemDisk creates a MemDisk rolling segments at segSize bytes.
func NewMemDisk(segSize int64) *MemDisk {
	if segSize <= 0 {
		segSize = 4 << 20
	}
	return &MemDisk{segSize: segSize, segments: map[int][]byte{0: nil}}
}

// Append implements Disk.
func (d *MemDisk) Append(data []byte) (int, int64) {
	if int64(len(d.segments[d.active])) >= d.segSize {
		d.active++
		d.segments[d.active] = nil
	}
	off := int64(len(d.segments[d.active]))
	d.segments[d.active] = append(d.segments[d.active], data...)
	return d.active, off
}

// ReadAt implements Disk.
func (d *MemDisk) ReadAt(seg int, off int64, n int) []byte {
	s, ok := d.segments[seg]
	if !ok {
		panic(fmt.Sprintf("kvstore: read from dropped segment %d", seg))
	}
	return s[off : off+int64(n)]
}

// Seal implements Disk.
func (d *MemDisk) Seal() int {
	d.active++
	d.segments[d.active] = nil
	return d.active
}

// DropSegmentsBefore implements Disk.
func (d *MemDisk) DropSegmentsBefore(seg int) {
	for i := range d.segments {
		if i < seg {
			delete(d.segments, i)
		}
	}
}
