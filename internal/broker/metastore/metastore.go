// Package metastore is the fault-tolerant coordination service the
// memory broker stores its state in — the role ZooKeeper plays in the
// paper (Section 4.2). It provides a linearizable, versioned key-value
// tree with ephemeral nodes tied to sessions and watch notifications,
// which is the subset of the ZooKeeper API the broker relies on:
// lease metadata survives a broker crash, and a new broker can be
// elected and pick the state up.
//
// The ensemble's internal consensus replication is abstracted away
// (DESIGN.md §2): within the simulation the store is a single
// linearizable object whose operations charge a small RPC cost, which
// preserves the semantics the paper depends on. Replication of the
// *data* plane — K-way replicated striping of remote-memory files — is
// modelled in internal/core (see DESIGN.md's fault-tolerance section).
package metastore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"remotedb/internal/fault"
	"remotedb/internal/sim"
)

// Errors returned by store operations. ErrNoNode and ErrPartitioned wrap
// the repository-wide fault taxonomy so callers can classify them with
// errors.Is without importing this package.
var (
	ErrNoNode      = fmt.Errorf("metastore: node does not exist (%w)", fault.ErrNotFound)
	ErrNodeExists  = errors.New("metastore: node already exists")
	ErrBadVersion  = errors.New("metastore: version conflict")
	ErrNoSession   = errors.New("metastore: session expired or closed")
	ErrNotEmpty    = errors.New("metastore: node has children")
	ErrBadPath     = errors.New("metastore: malformed path")
	ErrSessionGone = errors.New("metastore: session does not exist")

	// ErrPartitioned is returned while the client is partitioned from
	// the coordination ensemble (fault injection). The condition is
	// transient — it wraps fault.ErrRetryable.
	ErrPartitioned = fmt.Errorf("metastore: partitioned from ensemble (%w)", fault.ErrRetryable)
)

// Node is a versioned entry.
type node struct {
	data      []byte
	version   int64
	ephemeral SessionID // zero when persistent
}

// SessionID identifies a client session; ephemeral nodes die with it.
type SessionID int64

// Event describes a change to a watched path.
type Event struct {
	Path    string
	Deleted bool
}

// Store is the coordination service.
type Store struct {
	k           *sim.Kernel
	rpcCost     time.Duration
	nodes       map[string]*node
	watches     map[string][]func(Event)
	sessions    map[SessionID]map[string]bool // session -> ephemeral paths
	nextSess    SessionID
	partitioned bool

	// Timeouts counts operations rejected while partitioned.
	Timeouts int64
}

// New creates a store on kernel k. rpcCost is charged per operation to
// model the round trip to the coordination ensemble.
func New(k *sim.Kernel, rpcCost time.Duration) *Store {
	return &Store{
		k:        k,
		rpcCost:  rpcCost,
		nodes:    map[string]*node{"/": {}},
		watches:  make(map[string][]func(Event)),
		sessions: make(map[SessionID]map[string]bool),
	}
}

func (s *Store) charge(p *sim.Proc) {
	if p != nil && s.rpcCost > 0 {
		p.Sleep(s.rpcCost)
	}
}

// SetPartitioned simulates a network partition between clients and the
// coordination ensemble: while set, mutating and reading operations fail
// with ErrPartitioned (after charging a timed-out RPC). The state in the
// store is preserved — healing the partition restores service.
func (s *Store) SetPartitioned(on bool) { s.partitioned = on }

// reject implements the partition check shared by every operation.
func (s *Store) reject() error {
	if s.partitioned {
		s.Timeouts++
		return ErrPartitioned
	}
	return nil
}

func validPath(path string) bool {
	if path == "/" {
		return true
	}
	return strings.HasPrefix(path, "/") && !strings.HasSuffix(path, "/") && !strings.Contains(path, "//")
}

func parent(path string) string {
	i := strings.LastIndex(path, "/")
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// NewSession opens a session.
func (s *Store) NewSession(p *sim.Proc) SessionID {
	s.charge(p)
	s.nextSess++
	id := s.nextSess
	s.sessions[id] = make(map[string]bool)
	return id
}

// CloseSession ends a session, deleting its ephemeral nodes.
func (s *Store) CloseSession(p *sim.Proc, id SessionID) error {
	s.charge(p)
	paths, ok := s.sessions[id]
	if !ok {
		return ErrSessionGone
	}
	delete(s.sessions, id)
	var sorted []string
	for path := range paths {
		sorted = append(sorted, path)
	}
	// Delete deepest-first so children go before parents.
	sort.Slice(sorted, func(i, j int) bool { return len(sorted[i]) > len(sorted[j]) })
	for _, path := range sorted {
		if _, ok := s.nodes[path]; ok {
			delete(s.nodes, path)
			s.notify(Event{Path: path, Deleted: true})
		}
	}
	return nil
}

// Create adds a node. If sess is non-zero the node is ephemeral and is
// removed when the session closes.
func (s *Store) Create(p *sim.Proc, path string, data []byte, sess SessionID) error {
	s.charge(p)
	if err := s.reject(); err != nil {
		return err
	}
	if !validPath(path) || path == "/" {
		return ErrBadPath
	}
	if _, ok := s.nodes[path]; ok {
		return ErrNodeExists
	}
	if _, ok := s.nodes[parent(path)]; !ok {
		return ErrNoNode
	}
	if sess != 0 {
		owned, ok := s.sessions[sess]
		if !ok {
			return ErrNoSession
		}
		owned[path] = true
	}
	s.nodes[path] = &node{data: append([]byte(nil), data...), ephemeral: sess}
	s.notify(Event{Path: path})
	return nil
}

// Get returns a node's data and version.
func (s *Store) Get(p *sim.Proc, path string) (data []byte, version int64, err error) {
	s.charge(p)
	if err := s.reject(); err != nil {
		return nil, 0, err
	}
	n, ok := s.nodes[path]
	if !ok {
		return nil, 0, ErrNoNode
	}
	return append([]byte(nil), n.data...), n.version, nil
}

// Set replaces a node's data if version matches (-1 skips the check).
func (s *Store) Set(p *sim.Proc, path string, data []byte, version int64) (int64, error) {
	s.charge(p)
	if err := s.reject(); err != nil {
		return 0, err
	}
	n, ok := s.nodes[path]
	if !ok {
		return 0, ErrNoNode
	}
	if version >= 0 && version != n.version {
		return 0, ErrBadVersion
	}
	n.data = append([]byte(nil), data...)
	n.version++
	s.notify(Event{Path: path})
	return n.version, nil
}

// BatchSet is one write of a SetBatch.
type BatchSet struct {
	Path string
	Data []byte
}

// SetBatch replaces the data of many nodes in ONE round trip to the
// ensemble — the batched-heartbeat primitive: a broker renews every
// lease of one holder for the cost of a single RPC. The batch is not a
// transaction: nodes that exist are updated (version bumped, watches
// fired), nodes that do not are reported by index in missing, and a
// partition rejects the whole batch. Version checks are deliberately
// absent — last-writer-wins matches how lease expiries are maintained.
func (s *Store) SetBatch(p *sim.Proc, items []BatchSet) (missing []int, err error) {
	s.charge(p)
	if err := s.reject(); err != nil {
		return nil, err
	}
	for i, it := range items {
		n, ok := s.nodes[it.Path]
		if !ok {
			missing = append(missing, i)
			continue
		}
		n.data = append([]byte(nil), it.Data...)
		n.version++
		s.notify(Event{Path: it.Path})
	}
	return missing, nil
}

// Delete removes a childless node if version matches (-1 skips).
func (s *Store) Delete(p *sim.Proc, path string, version int64) error {
	s.charge(p)
	if err := s.reject(); err != nil {
		return err
	}
	n, ok := s.nodes[path]
	if !ok {
		return ErrNoNode
	}
	if version >= 0 && version != n.version {
		return ErrBadVersion
	}
	prefix := path + "/"
	for other := range s.nodes {
		if strings.HasPrefix(other, prefix) {
			return ErrNotEmpty
		}
	}
	if n.ephemeral != 0 {
		if owned, ok := s.sessions[n.ephemeral]; ok {
			delete(owned, path)
		}
	}
	delete(s.nodes, path)
	s.notify(Event{Path: path, Deleted: true})
	return nil
}

// Children lists the names (not full paths) of a node's children, sorted.
func (s *Store) Children(p *sim.Proc, path string) ([]string, error) {
	s.charge(p)
	if err := s.reject(); err != nil {
		return nil, err
	}
	if _, ok := s.nodes[path]; !ok {
		return nil, ErrNoNode
	}
	prefix := path + "/"
	if path == "/" {
		prefix = "/"
	}
	var names []string
	for other := range s.nodes {
		if other == "/" || !strings.HasPrefix(other, prefix) {
			continue
		}
		rest := other[len(prefix):]
		if !strings.Contains(rest, "/") {
			names = append(names, rest)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Exists reports whether a node is present.
func (s *Store) Exists(p *sim.Proc, path string) bool {
	s.charge(p)
	_, ok := s.nodes[path]
	return ok
}

// Watch registers fn for changes at exactly path (create, set, delete).
// Watches are persistent (unlike ZooKeeper's one-shot watches) to keep
// broker code simple.
func (s *Store) Watch(path string, fn func(Event)) {
	s.watches[path] = append(s.watches[path], fn)
}

func (s *Store) notify(ev Event) {
	for _, fn := range s.watches[ev.Path] {
		fn(ev)
	}
}
