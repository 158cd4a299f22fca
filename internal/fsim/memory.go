package fsim

import (
	"cmp"
	"slices"
)

// pageWords is the number of 8-byte words per page (4 KiB pages).
const pageWords = 512

// Memory is a sparse, page-granular 64-bit word-addressable memory covering
// the ISA's 40-bit address space. Unwritten locations read as zero, which
// keeps wrong-path execution with garbage addresses well defined.
type Memory struct {
	pages map[uint64]pageRef
}

// pageRef is one page of a memory: its words, and whether the memory owns
// them. A memory built from an image (see memoryFrom) shares the image's
// pages read-only and copies each one at its first store.
type pageRef struct {
	words *[pageWords]uint64
	owned bool
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]pageRef)}
}

// Read returns the 8-byte word at addr (8-byte aligned by the ISA's
// effective-address computation).
func (m *Memory) Read(addr uint64) uint64 {
	pg := m.pages[addr/8/pageWords].words
	if pg == nil {
		return 0
	}
	return pg[addr/8%pageWords]
}

// Write stores an 8-byte word at addr.
func (m *Memory) Write(addr uint64, v uint64) {
	idx := addr / 8 / pageWords
	ref := m.pages[idx]
	if !ref.owned {
		pg := new([pageWords]uint64)
		if ref.words != nil {
			*pg = *ref.words
		}
		ref = pageRef{words: pg, owned: true}
		m.pages[idx] = ref
	}
	ref.words[addr/8%pageWords] = v
}

// Footprint returns the number of distinct pages touched, a cheap proxy for
// working-set size used by workload tests.
func (m *Memory) Footprint() int { return len(m.pages) }

// memPage is one page of a memory image.
type memPage struct {
	idx   uint64
	words *[pageWords]uint64
}

// image returns m's pages in address order. The pages are shared with m,
// which must not be written afterwards.
func (m *Memory) image() []memPage {
	img := make([]memPage, 0, len(m.pages))
	for idx, ref := range m.pages {
		img = append(img, memPage{idx, ref.words})
	}
	slices.SortFunc(img, func(a, b memPage) int { return cmp.Compare(a.idx, b.idx) })
	return img
}

// memoryFrom returns a memory holding the pages of img, shared until its
// first store to each.
func memoryFrom(img []memPage) *Memory {
	m := &Memory{pages: make(map[uint64]pageRef, len(img))}
	for _, p := range img {
		m.pages[p.idx] = pageRef{words: p.words}
	}
	return m
}
