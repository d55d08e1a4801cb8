//! Typed working memory, arena edition.
//!
//! Drools sessions hold *facts*; rules pattern-match over them and mutate
//! them. [`WorkingMemory`] is the Rust equivalent: a deterministic store of
//! heterogeneous fact values addressed by [`FactHandle`], with per-fact
//! version counters that drive the engine's refraction logic (a rule does
//! not re-fire on a fact tuple until one of its facts changes).
//!
//! Facts live in *typed slabs*: one generational arena per fact type, each
//! slot carrying the value inline plus an intrusive insertion-order list, so
//! iteration and indexed lookups walk contiguous typed storage with **one**
//! `TypeId` dispatch per call instead of one `Box<dyn Fact>` pointer chase
//! and `downcast_ref` per fact. Slots are recycled through a free list; every
//! recycle bumps the slot's generation, which is what makes [`FactId`] — a
//! typed `(slot, generation)` pair — immune to the ABA problem: a probe
//! through a stale id sees the generation mismatch and returns `None`, never
//! another fact that happens to reuse the slot.
//!
//! Iteration order is insertion order (handles are monotonically increasing
//! and the per-slab list appends at the tail), so rule evaluation is
//! reproducible and exactly matches the legacy `BTreeMap` store, which is
//! preserved as [`crate::legacy::LegacyWorkingMemory`] behind the
//! `legacy-facts` feature to serve as the differential-test oracle.

use crate::fx::FxHashMap;
use std::any::{Any, TypeId};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;

/// Marker trait for values storable in working memory.
///
/// Blanket-implemented for every `'static + Debug` type; you never implement
/// it by hand.
pub trait Fact: Any + fmt::Debug + Send {
    /// Upcast to `&dyn Any` (object-safe downcasting support).
    fn as_any(&self) -> &dyn Any;
    /// Upcast to `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any + fmt::Debug + Send> Fact for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Stable identifier of one fact in a [`WorkingMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactHandle(pub u64);

/// Sentinel slot index for "no slot" in the intrusive lists.
const NIL: u32 = u32::MAX;

/// Typed generational id of one fact: arena slot plus the slot's generation
/// at issue time. Unlike [`FactHandle`] (which routes through a hash lookup
/// and works for any type), a `FactId<T>` indexes its typed slab directly —
/// and it can never resurrect: retracting the fact bumps the slot
/// generation, so probing a stale id returns `None` even after the slot is
/// recycled for a new fact.
pub struct FactId<T> {
    slot: u32,
    gen: u32,
    _marker: PhantomData<fn() -> T>,
}

// Manual impls: derives would demand `T: Copy` etc., but the id itself is
// always a plain (u32, u32) regardless of the fact type.
impl<T> Clone for FactId<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for FactId<T> {}
impl<T> PartialEq for FactId<T> {
    fn eq(&self, other: &Self) -> bool {
        self.slot == other.slot && self.gen == other.gen
    }
}
impl<T> Eq for FactId<T> {}
impl<T> Hash for FactId<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.slot.hash(state);
        self.gen.hash(state);
    }
}
impl<T> fmt::Debug for FactId<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FactId<{}>({}g{})",
            std::any::type_name::<T>(),
            self.slot,
            self.gen
        )
    }
}

/// One arena slot: either a live fact with its intrusive-list links or a
/// link in the free list. `gen` increments each time the slot is vacated.
struct ArenaSlot<T> {
    gen: u32,
    state: SlotState<T>,
}

enum SlotState<T> {
    Occupied {
        value: T,
        handle: FactHandle,
        version: u64,
        prev: u32,
        next: u32,
    },
    Free {
        next_free: u32,
    },
}

/// Generational arena of all facts of one type, threaded with an intrusive
/// doubly-linked list in insertion order (appends at the tail). Handles are
/// monotone, facts are never re-inserted under an old handle, so list order
/// is also ascending-handle order — the iteration contract the engine's
/// match caches rely on.
struct TypedSlab<T> {
    slots: Vec<ArenaSlot<T>>,
    free_head: u32,
    head: u32,
    tail: u32,
    len: usize,
}

impl<T> TypedSlab<T> {
    fn new() -> Self {
        TypedSlab {
            slots: Vec::new(),
            free_head: NIL,
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Place `value` in a slot (recycling the free list) and link it at the
    /// tail of the insertion-order list.
    fn alloc(&mut self, value: T, handle: FactHandle) -> u32 {
        let slot = if self.free_head != NIL {
            let slot = self.free_head;
            let SlotState::Free { next_free } = self.slots[slot as usize].state else {
                unreachable!("free list points at occupied slot");
            };
            self.free_head = next_free;
            self.slots[slot as usize].state = SlotState::Occupied {
                value,
                handle,
                version: 0,
                prev: self.tail,
                next: NIL,
            };
            slot
        } else {
            let slot = self.slots.len() as u32;
            assert!(slot != NIL, "typed slab exhausted u32 slot space");
            self.slots.push(ArenaSlot {
                gen: 0,
                state: SlotState::Occupied {
                    value,
                    handle,
                    version: 0,
                    prev: self.tail,
                    next: NIL,
                },
            });
            slot
        };
        if self.tail != NIL {
            let SlotState::Occupied { next, .. } = &mut self.slots[self.tail as usize].state else {
                unreachable!("tail points at free slot");
            };
            *next = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
        self.len += 1;
        slot
    }

    /// Unlink and vacate `slot`, bumping its generation so stale
    /// [`FactId`]s miss. Returns the evicted value.
    fn remove(&mut self, slot: u32) -> T {
        let state = std::mem::replace(
            &mut self.slots[slot as usize].state,
            SlotState::Free {
                next_free: self.free_head,
            },
        );
        let SlotState::Occupied {
            value, prev, next, ..
        } = state
        else {
            unreachable!("remove of free slot");
        };
        if prev != NIL {
            let SlotState::Occupied { next: n, .. } = &mut self.slots[prev as usize].state else {
                unreachable!("prev points at free slot");
            };
            *n = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            let SlotState::Occupied { prev: p, .. } = &mut self.slots[next as usize].state else {
                unreachable!("next points at free slot");
            };
            *p = prev;
        } else {
            self.tail = prev;
        }
        self.slots[slot as usize].gen = self.slots[slot as usize].gen.wrapping_add(1);
        self.free_head = slot;
        self.len -= 1;
        value
    }

    fn value(&self, slot: u32) -> &T {
        match &self.slots[slot as usize].state {
            SlotState::Occupied { value, .. } => value,
            SlotState::Free { .. } => unreachable!("value of free slot"),
        }
    }

    fn value_mut(&mut self, slot: u32) -> &mut T {
        match &mut self.slots[slot as usize].state {
            SlotState::Occupied { value, .. } => value,
            SlotState::Free { .. } => unreachable!("value_mut of free slot"),
        }
    }

    fn version(&self, slot: u32) -> u64 {
        match &self.slots[slot as usize].state {
            SlotState::Occupied { version, .. } => *version,
            SlotState::Free { .. } => unreachable!("version of free slot"),
        }
    }

    fn bump_version(&mut self, slot: u32) {
        match &mut self.slots[slot as usize].state {
            SlotState::Occupied { version, .. } => *version += 1,
            SlotState::Free { .. } => unreachable!("bump_version of free slot"),
        }
    }

    fn generation_of(&self, slot: u32) -> u32 {
        self.slots[slot as usize].gen
    }

    /// Generation-checked probe: `Some` only while the slot still holds the
    /// fact the id was issued for.
    fn value_checked(&self, slot: u32, gen: u32) -> Option<&T> {
        let s = self.slots.get(slot as usize)?;
        if s.gen != gen {
            return None;
        }
        match &s.state {
            SlotState::Occupied { value, .. } => Some(value),
            SlotState::Free { .. } => None,
        }
    }

    /// Insertion-order walk yielding `(handle, slot, &value)`.
    fn iter_slots(&self) -> impl Iterator<Item = (FactHandle, u32, &T)> {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let slot = cur;
            let SlotState::Occupied {
                value,
                handle,
                next,
                ..
            } = &self.slots[slot as usize].state
            else {
                unreachable!("insertion list points at free slot");
            };
            cur = *next;
            Some((*handle, slot, value))
        })
    }
}

/// Object-safe face of a [`TypedSlab`], so [`WorkingMemory`] can hold slabs
/// of arbitrary fact types and service untyped operations (retract,
/// version queries) without knowing `T`.
trait ErasedSlab: Send {
    fn remove_slot(&mut self, slot: u32);
    fn version_of(&self, slot: u32) -> u64;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Fact> ErasedSlab for TypedSlab<T> {
    fn remove_slot(&mut self, slot: u32) {
        let _ = self.remove(slot);
    }
    fn version_of(&self, slot: u32) -> u64 {
        self.version(slot)
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Where one handle's fact lives: which typed slab, and which slot in it.
#[derive(Clone, Copy)]
struct HandleEntry {
    type_id: TypeId,
    slot: u32,
}

/// Type-erased secondary index, maintained on every insert/update/retract.
/// The concrete type is always [`KeyIndex<T, K>`]; erasure lets
/// [`WorkingMemory`] hold indexes over arbitrary fact/key type pairs. The
/// callbacks carry the fact's arena slot so lookups can later jump straight
/// into the typed slab.
trait ErasedIndex: Send {
    fn on_insert(&mut self, handle: FactHandle, slot: u32, fact: &dyn Any);
    fn on_remove(&mut self, handle: FactHandle);
    /// Re-key after an in-place mutation. The index keeps a reverse map of
    /// each handle's current key, so an update whose key did not change is a
    /// cheap compare instead of a remove + insert.
    fn on_update(&mut self, handle: FactHandle, slot: u32, fact: &dyn Any);
    fn as_any(&self) -> &dyn Any;
}

/// Hash index from an extracted key to the handles bearing it — the alpha
/// memory of a Rete network: equality joins probe this instead of scanning
/// every fact of the type. Each posting also records the fact's arena slot,
/// so [`WorkingMemory::iter_by`] resolves facts by direct slab indexing:
/// one slab downcast per *call*, zero downcasts per fact. Postings are
/// handle-ordered, so indexed lookups see facts in the same insertion order
/// as [`WorkingMemory::iter`]. They are sorted vectors: handles are issued in
/// ascending order, so a fresh fact's posting is a push, and a probe walks a
/// slice.
struct KeyIndex<T: Fact, K: Eq + Hash + Clone + Send + 'static> {
    extract: fn(&T) -> K,
    /// key → (handle, slot) postings, handle-ascending.
    map: FxHashMap<K, Vec<(FactHandle, u32)>>,
    /// Each indexed handle's current key, so removals and no-op re-keys
    /// never re-extract from a stale fact value.
    back: FxHashMap<FactHandle, K>,
}

impl<T: Fact, K: Eq + Hash + Clone + Send + 'static> KeyIndex<T, K> {
    fn link(&mut self, handle: FactHandle, slot: u32, key: K) {
        let postings = self.map.entry(key.clone()).or_default();
        match postings.last() {
            Some(&(last, _)) if last > handle => {
                let at = postings.partition_point(|&(h, _)| h < handle);
                postings.insert(at, (handle, slot));
            }
            _ => postings.push((handle, slot)),
        }
        self.back.insert(handle, key);
    }

    fn unlink(&mut self, handle: FactHandle) {
        if let Some(key) = self.back.remove(&handle) {
            if let Some(postings) = self.map.get_mut(&key) {
                if let Ok(at) = postings.binary_search_by_key(&handle, |&(h, _)| h) {
                    postings.remove(at);
                }
                if postings.is_empty() {
                    self.map.remove(&key);
                }
            }
        }
    }
}

impl<T: Fact, K: Eq + Hash + Clone + Send + 'static> ErasedIndex for KeyIndex<T, K> {
    fn on_insert(&mut self, handle: FactHandle, slot: u32, fact: &dyn Any) {
        let t = fact.downcast_ref::<T>().expect("index fact type");
        self.link(handle, slot, (self.extract)(t));
    }

    fn on_remove(&mut self, handle: FactHandle) {
        self.unlink(handle);
    }

    fn on_update(&mut self, handle: FactHandle, slot: u32, fact: &dyn Any) {
        let t = fact.downcast_ref::<T>().expect("index fact type");
        let key = (self.extract)(t);
        if self.back.get(&handle) == Some(&key) {
            return;
        }
        self.unlink(handle);
        self.link(handle, slot, key);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Per-type log of recently mutated handles, driving the engine's delta
/// re-evaluation of single-type rules: instead of re-scanning every fact of
/// a watched type after a mutation, a rule asks which handles changed since
/// its cache was computed and re-probes only those.
#[derive(Default)]
pub(crate) struct TypeLog {
    /// `(generation, handle)` in ascending generation order. A handle may
    /// appear many times; readers dedup.
    entries: Vec<(u64, FactHandle)>,
    /// Highest generation already compacted away. A reader whose cache
    /// predates the floor must fall back to a full re-scan.
    floor: u64,
}

/// Entries a [`TypeLog`] holds before compaction drops its older half.
const TYPE_LOG_CAP: usize = 1024;

impl TypeLog {
    pub(crate) fn push(&mut self, gen: u64, handle: FactHandle) {
        // Collapse repeated mutations of the same fact (the common shape:
        // one fact updated several times in a firing cascade).
        if let Some(last) = self.entries.last_mut() {
            if last.1 == handle {
                last.0 = gen;
                return;
            }
        }
        if self.entries.len() >= TYPE_LOG_CAP {
            let drop = self.entries.len() / 2;
            self.floor = self.entries[drop - 1].0;
            self.entries.drain(..drop);
        }
        self.entries.push((gen, handle));
    }

    /// Handles mutated at generations strictly after `gen`, oldest first, or
    /// `None` if the log no longer reaches back that far.
    pub(crate) fn since(&self, gen: u64) -> Option<&[(u64, FactHandle)]> {
        if gen < self.floor {
            return None;
        }
        let start = self.entries.partition_point(|&(g, _)| g <= gen);
        Some(&self.entries[start..])
    }
}

/// The fact store.
#[derive(Default)]
pub struct WorkingMemory {
    /// One generational arena per fact type.
    slabs: FxHashMap<TypeId, Box<dyn ErasedSlab>>,
    /// handle → (slab, slot). Entries are removed on retract, so membership
    /// doubles as liveness and the map never grows past the live fact count.
    handle_index: FxHashMap<u64, HandleEntry>,
    next_handle: u64,
    /// Live facts across all slabs.
    live: usize,
    /// Bumped on every insert/update/retract; engines watch it to detect
    /// quiescence.
    generation: u64,
    /// Per-type dirty marks: the global generation at which each fact type
    /// was last inserted/updated/retracted. The incremental engine compares
    /// these against the generation a rule's match cache was computed at, so
    /// a mutation to type `T` only invalidates rules watching `T`.
    type_gen: FxHashMap<TypeId, u64>,
    /// Secondary indexes, keyed by (fact type, key type).
    indexes: FxHashMap<(TypeId, TypeId), Box<dyn ErasedIndex>>,
    /// Per-type mutation logs (see [`TypeLog`]).
    type_log: FxHashMap<TypeId, TypeLog>,
}

impl fmt::Debug for WorkingMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkingMemory")
            .field("facts", &self.live)
            .field("generation", &self.generation)
            .finish()
    }
}

impl WorkingMemory {
    /// Empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn slab<T: Fact>(&self) -> Option<&TypedSlab<T>> {
        self.slabs.get(&TypeId::of::<T>()).map(|s| {
            s.as_any()
                .downcast_ref::<TypedSlab<T>>()
                .expect("slab type")
        })
    }

    /// Insert a fact, returning its handle.
    pub fn insert<T: Fact>(&mut self, fact: T) -> FactHandle {
        let handle = FactHandle(self.next_handle);
        self.next_handle += 1;
        let type_id = TypeId::of::<T>();
        let slab = self
            .slabs
            .entry(type_id)
            .or_insert_with(|| Box::new(TypedSlab::<T>::new()))
            .as_any_mut()
            .downcast_mut::<TypedSlab<T>>()
            .expect("slab type");
        let slot = slab.alloc(fact, handle);
        let value: &T = slab.value(slot);
        for (_, idx) in self
            .indexes
            .iter_mut()
            .filter(|((ft, _), _)| *ft == type_id)
        {
            idx.on_insert(handle, slot, value);
        }
        self.handle_index
            .insert(handle.0, HandleEntry { type_id, slot });
        self.live += 1;
        self.generation += 1;
        self.type_gen.insert(type_id, self.generation);
        self.type_log
            .entry(type_id)
            .or_default()
            .push(self.generation, handle);
        handle
    }

    /// Remove a fact. Returns `true` if it existed.
    pub fn retract(&mut self, handle: FactHandle) -> bool {
        let Some(entry) = self.handle_index.remove(&handle.0) else {
            return false;
        };
        self.slabs
            .get_mut(&entry.type_id)
            .expect("handle entry implies slab")
            .remove_slot(entry.slot);
        for (_, idx) in self
            .indexes
            .iter_mut()
            .filter(|((ft, _), _)| *ft == entry.type_id)
        {
            idx.on_remove(handle);
        }
        self.live -= 1;
        self.generation += 1;
        self.type_gen.insert(entry.type_id, self.generation);
        self.type_log
            .entry(entry.type_id)
            .or_default()
            .push(self.generation, handle);
        true
    }

    /// Immutable access to a fact of known type.
    pub fn get<T: Fact>(&self, handle: FactHandle) -> Option<&T> {
        let entry = self.handle_index.get(&handle.0)?;
        if entry.type_id != TypeId::of::<T>() {
            return None;
        }
        Some(
            self.slab::<T>()
                .expect("handle entry implies slab")
                .value(entry.slot),
        )
    }

    /// Typed generational id of a live fact, or `None` if the handle is
    /// stale or names a different type. The id supports direct slab probes
    /// via [`WorkingMemory::get_id`] with ABA-safe staleness detection.
    pub fn fact_id<T: Fact>(&self, handle: FactHandle) -> Option<FactId<T>> {
        let entry = self.handle_index.get(&handle.0)?;
        if entry.type_id != TypeId::of::<T>() {
            return None;
        }
        let slab = self.slab::<T>().expect("handle entry implies slab");
        Some(FactId {
            slot: entry.slot,
            gen: slab.generation_of(entry.slot),
            _marker: PhantomData,
        })
    }

    /// Probe by typed id: direct slab indexing, no hash lookup, no
    /// downcast-per-fact. Returns `None` once the fact has been retracted —
    /// the slot generation was bumped, so even a recycled slot cannot serve
    /// a stale id.
    pub fn get_id<T: Fact>(&self, id: FactId<T>) -> Option<&T> {
        self.slab::<T>()?.value_checked(id.slot, id.gen)
    }

    /// Mutate a fact in place; bumps its version (making rules eligible to
    /// re-fire on it). Returns `false` if the handle is stale or the type is
    /// wrong.
    pub fn update<T: Fact>(&mut self, handle: FactHandle, f: impl FnOnce(&mut T)) -> bool {
        let type_id = TypeId::of::<T>();
        let Some(&HandleEntry {
            type_id: actual,
            slot,
        }) = self.handle_index.get(&handle.0)
        else {
            return false;
        };
        if actual != type_id {
            return false;
        }
        let slab = self
            .slabs
            .get_mut(&type_id)
            .expect("handle entry implies slab")
            .as_any_mut()
            .downcast_mut::<TypedSlab<T>>()
            .expect("slab type");
        f(slab.value_mut(slot));
        slab.bump_version(slot);
        // Re-key under the post-update value — the closure may have changed
        // indexed fields. The index compares against its reverse map, so an
        // unchanged key costs one extract.
        let value: &T = self
            .slabs
            .get(&type_id)
            .expect("slab persists")
            .as_any()
            .downcast_ref::<TypedSlab<T>>()
            .expect("slab type")
            .value(slot);
        for (_, idx) in self
            .indexes
            .iter_mut()
            .filter(|((ft, _), _)| *ft == type_id)
        {
            idx.on_update(handle, slot, value);
        }
        self.generation += 1;
        self.type_gen.insert(type_id, self.generation);
        self.type_log
            .entry(type_id)
            .or_default()
            .push(self.generation, handle);
        true
    }

    /// Current version of a fact (None if retracted). Handles start at 0 and
    /// bump on each [`WorkingMemory::update`].
    pub fn version(&self, handle: FactHandle) -> Option<u64> {
        let entry = self.handle_index.get(&handle.0)?;
        Some(
            self.slabs
                .get(&entry.type_id)
                .expect("handle entry implies slab")
                .version_of(entry.slot),
        )
    }

    /// Monotone counter over all mutations.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Generation at which facts of `type_id` were last mutated (insert,
    /// update or retract). Zero if the type has never been touched. A rule
    /// whose match cache was computed at generation `g` is stale for type
    /// `T` iff `type_generation(T) > g`.
    pub fn type_generation(&self, type_id: TypeId) -> u64 {
        self.type_gen.get(&type_id).copied().unwrap_or(0)
    }

    /// Typed convenience wrapper over [`WorkingMemory::type_generation`].
    pub fn type_generation_of<T: Fact>(&self) -> u64 {
        self.type_generation(TypeId::of::<T>())
    }

    /// Iterate all facts of type `T` in handle (= insertion) order. Walks
    /// the typed slab's intrusive list: contiguous storage, one downcast
    /// for the whole call.
    pub fn iter<T: Fact>(&self) -> impl Iterator<Item = (FactHandle, &T)> {
        self.slab::<T>()
            .into_iter()
            .flat_map(|slab| slab.iter_slots().map(|(h, _, t)| (h, t)))
    }

    /// Handles of all facts of type `T`, insertion order.
    pub fn handles<T: Fact>(&self) -> Vec<FactHandle> {
        self.iter::<T>().map(|(h, _)| h).collect()
    }

    /// First fact of type `T` matching `pred`.
    pub fn find<T: Fact>(&self, pred: impl Fn(&T) -> bool) -> Option<(FactHandle, &T)> {
        self.iter::<T>().find(|(_, t)| pred(t))
    }

    /// Register a hash index over facts of type `T`, keyed by `extract`.
    /// Existing facts are back-filled, and the index is maintained on every
    /// subsequent insert/update/retract. One index per (fact type, key type)
    /// pair; re-registering replaces the index.
    ///
    /// Equality joins probe the index via [`WorkingMemory::find_by`] in O(1)
    /// instead of scanning every fact of the type — the alpha memory of a
    /// Rete network.
    pub fn register_index<T: Fact, K: Eq + Hash + Clone + Send + 'static>(
        &mut self,
        extract: fn(&T) -> K,
    ) {
        let mut index = KeyIndex::<T, K> {
            extract,
            map: FxHashMap::default(),
            back: FxHashMap::default(),
        };
        if let Some(slab) = self.slab::<T>() {
            for (h, slot, t) in slab.iter_slots() {
                index.link(h, slot, extract(t));
            }
        }
        self.indexes
            .insert((TypeId::of::<T>(), TypeId::of::<K>()), Box::new(index));
    }

    fn key_index<T: Fact, K: Eq + Hash + Clone + Send + 'static>(&self) -> &KeyIndex<T, K> {
        self.indexes
            .get(&(TypeId::of::<T>(), TypeId::of::<K>()))
            .unwrap_or_else(|| {
                panic!(
                    "no index over {} keyed by {}; call register_index first",
                    std::any::type_name::<T>(),
                    std::any::type_name::<K>()
                )
            })
            .as_any()
            .downcast_ref::<KeyIndex<T, K>>()
            .expect("index shape matches its registration key")
    }

    /// Handles of facts of type `T` whose indexed key equals `key`, in
    /// insertion order. Panics if no such index was registered.
    pub fn lookup_by<T: Fact, K: Eq + Hash + Clone + Send + 'static>(
        &self,
        key: &K,
    ) -> Vec<FactHandle> {
        self.key_index::<T, K>()
            .map
            .get(key)
            .map(|postings| postings.iter().map(|&(h, _)| h).collect())
            .unwrap_or_default()
    }

    /// Iterate facts of type `T` whose indexed key equals `key`, in
    /// insertion order, without allocating. Panics if no such index was
    /// registered. This is the alpha-memory join path: the index posting
    /// carries each fact's arena slot, so resolution is direct typed-slab
    /// indexing — one downcast per call, not per fact.
    pub fn iter_by<'a, T: Fact, K: Eq + Hash + Clone + Send + 'static>(
        &'a self,
        key: &K,
    ) -> impl Iterator<Item = (FactHandle, &'a T)> + 'a {
        let slab = self.slab::<T>();
        self.key_index::<T, K>()
            .map
            .get(key)
            .into_iter()
            .flat_map(|postings| postings.iter())
            .map(move |&(h, slot)| {
                let slab = slab.expect("indexed fact implies slab");
                (h, slab.value(slot))
            })
    }

    /// Handles of facts of `type_id` mutated (inserted, updated or
    /// retracted) at generations strictly after `gen`, oldest first, or
    /// `None` if the per-type log has been compacted past `gen` (the caller
    /// must then fall back to a full scan). Retracted handles appear in the
    /// result; callers filter with [`WorkingMemory::contains`].
    pub fn changed_since(&self, type_id: TypeId, gen: u64) -> Option<&[(u64, FactHandle)]> {
        match self.type_log.get(&type_id) {
            Some(log) => log.since(gen),
            // Type never mutated: nothing changed since any generation.
            None => Some(&[]),
        }
    }

    /// First (lowest-handle) fact of type `T` whose indexed key equals
    /// `key` — the indexed equivalent of [`WorkingMemory::find`] with a
    /// key-equality predicate. Panics if no such index was registered.
    pub fn find_by<T: Fact, K: Eq + Hash + Clone + Send + 'static>(
        &self,
        key: &K,
    ) -> Option<(FactHandle, &T)> {
        let &(handle, slot) = self.key_index::<T, K>().map.get(key)?.first()?;
        let slab = self.slab::<T>().expect("indexed fact implies slab");
        Some((handle, slab.value(slot)))
    }

    /// Number of facts of type `T`.
    pub fn count<T: Fact>(&self) -> usize {
        self.slab::<T>().map(|s| s.len).unwrap_or(0)
    }

    /// Total facts of all types.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no facts are stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// True if the handle refers to a live fact.
    pub fn contains(&self, handle: FactHandle) -> bool {
        self.handle_index.contains_key(&handle.0)
    }

    /// Retract every fact of type `T`; returns how many were removed.
    pub fn retract_all<T: Fact>(&mut self) -> usize {
        let handles = self.handles::<T>();
        let n = handles.len();
        for h in handles {
            self.retract(h);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Transfer {
        id: u32,
        streams: u32,
    }

    #[derive(Debug, PartialEq)]
    struct Cleanup {
        file: String,
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut wm = WorkingMemory::new();
        let h = wm.insert(Transfer { id: 1, streams: 4 });
        assert_eq!(wm.get::<Transfer>(h).unwrap().id, 1);
        assert_eq!(wm.len(), 1);
    }

    #[test]
    fn wrong_type_get_is_none() {
        let mut wm = WorkingMemory::new();
        let h = wm.insert(Transfer { id: 1, streams: 4 });
        assert!(wm.get::<Cleanup>(h).is_none());
    }

    #[test]
    fn retract_removes_and_is_idempotent() {
        let mut wm = WorkingMemory::new();
        let h = wm.insert(Transfer { id: 1, streams: 4 });
        assert!(wm.retract(h));
        assert!(!wm.retract(h));
        assert!(wm.get::<Transfer>(h).is_none());
        assert_eq!(wm.count::<Transfer>(), 0);
    }

    #[test]
    fn update_mutates_and_bumps_version() {
        let mut wm = WorkingMemory::new();
        let h = wm.insert(Transfer { id: 1, streams: 4 });
        assert_eq!(wm.version(h), Some(0));
        assert!(wm.update::<Transfer>(h, |t| t.streams = 8));
        assert_eq!(wm.get::<Transfer>(h).unwrap().streams, 8);
        assert_eq!(wm.version(h), Some(1));
    }

    #[test]
    fn update_wrong_type_fails_without_version_bump() {
        let mut wm = WorkingMemory::new();
        let h = wm.insert(Transfer { id: 1, streams: 4 });
        assert!(!wm.update::<Cleanup>(h, |_| {}));
        assert_eq!(wm.version(h), Some(0));
    }

    #[test]
    fn iteration_is_insertion_ordered_per_type() {
        let mut wm = WorkingMemory::new();
        wm.insert(Transfer { id: 3, streams: 0 });
        wm.insert(Cleanup { file: "x".into() });
        wm.insert(Transfer { id: 1, streams: 0 });
        wm.insert(Transfer { id: 2, streams: 0 });
        let ids: Vec<u32> = wm.iter::<Transfer>().map(|(_, t)| t.id).collect();
        assert_eq!(ids, vec![3, 1, 2]);
        assert_eq!(wm.count::<Transfer>(), 3);
        assert_eq!(wm.count::<Cleanup>(), 1);
    }

    #[test]
    fn find_matches_predicate() {
        let mut wm = WorkingMemory::new();
        wm.insert(Transfer { id: 1, streams: 4 });
        let h2 = wm.insert(Transfer { id: 2, streams: 8 });
        let (h, t) = wm.find::<Transfer>(|t| t.streams == 8).unwrap();
        assert_eq!(h, h2);
        assert_eq!(t.id, 2);
        assert!(wm.find::<Transfer>(|t| t.id == 99).is_none());
    }

    #[test]
    fn generation_tracks_all_mutations() {
        let mut wm = WorkingMemory::new();
        let g0 = wm.generation();
        let h = wm.insert(Transfer { id: 1, streams: 0 });
        assert!(wm.generation() > g0);
        let g1 = wm.generation();
        wm.update::<Transfer>(h, |t| t.streams = 1);
        assert!(wm.generation() > g1);
        let g2 = wm.generation();
        wm.retract(h);
        assert!(wm.generation() > g2);
    }

    #[test]
    fn retract_all_clears_one_type_only() {
        let mut wm = WorkingMemory::new();
        wm.insert(Transfer { id: 1, streams: 0 });
        wm.insert(Transfer { id: 2, streams: 0 });
        wm.insert(Cleanup { file: "a".into() });
        assert_eq!(wm.retract_all::<Transfer>(), 2);
        assert_eq!(wm.count::<Transfer>(), 0);
        assert_eq!(wm.count::<Cleanup>(), 1);
    }

    #[test]
    fn type_generation_tracks_only_its_type() {
        let mut wm = WorkingMemory::new();
        assert_eq!(wm.type_generation_of::<Transfer>(), 0);
        let h = wm.insert(Transfer { id: 1, streams: 0 });
        let t1 = wm.type_generation_of::<Transfer>();
        assert!(t1 > 0);
        wm.insert(Cleanup { file: "a".into() });
        assert_eq!(
            wm.type_generation_of::<Transfer>(),
            t1,
            "mutating Cleanup must not dirty Transfer"
        );
        assert!(wm.type_generation_of::<Cleanup>() > t1);
        wm.update::<Transfer>(h, |t| t.streams = 2);
        let t2 = wm.type_generation_of::<Transfer>();
        assert!(t2 > t1);
        wm.retract(h);
        assert!(wm.type_generation_of::<Transfer>() > t2);
    }

    #[test]
    fn index_backfills_and_tracks_mutations() {
        let mut wm = WorkingMemory::new();
        let h1 = wm.insert(Cleanup { file: "a".into() });
        wm.register_index::<Cleanup, String>(|c| c.file.clone());
        // Back-filled.
        assert_eq!(
            wm.find_by::<Cleanup, String>(&"a".to_string()).unwrap().0,
            h1
        );
        // Maintained on insert.
        let h2 = wm.insert(Cleanup { file: "b".into() });
        assert_eq!(
            wm.find_by::<Cleanup, String>(&"b".to_string()).unwrap().0,
            h2
        );
        // Maintained on key-changing update.
        wm.update::<Cleanup>(h1, |c| c.file = "c".into());
        assert!(wm.find_by::<Cleanup, String>(&"a".to_string()).is_none());
        assert_eq!(
            wm.find_by::<Cleanup, String>(&"c".to_string()).unwrap().0,
            h1
        );
        // Maintained on retract.
        wm.retract(h2);
        assert!(wm.find_by::<Cleanup, String>(&"b".to_string()).is_none());
    }

    #[test]
    fn index_lookup_is_insertion_ordered() {
        let mut wm = WorkingMemory::new();
        wm.register_index::<Cleanup, String>(|c| c.file.clone());
        let h1 = wm.insert(Cleanup { file: "x".into() });
        let h2 = wm.insert(Cleanup { file: "x".into() });
        wm.insert(Cleanup { file: "y".into() });
        assert_eq!(
            wm.lookup_by::<Cleanup, String>(&"x".to_string()),
            vec![h1, h2]
        );
        // find_by returns the lowest handle, like a linear `find` would.
        assert_eq!(
            wm.find_by::<Cleanup, String>(&"x".to_string()).unwrap().0,
            h1
        );
        // Indexes on other types are untouched by Cleanup traffic.
        wm.register_index::<Transfer, u32>(|t| t.id);
        let ht = wm.insert(Transfer { id: 7, streams: 0 });
        assert_eq!(wm.find_by::<Transfer, u32>(&7).unwrap().0, ht);
    }

    #[test]
    #[should_panic(expected = "no index")]
    fn unregistered_index_lookup_panics() {
        let wm = WorkingMemory::new();
        wm.find_by::<Cleanup, String>(&"a".to_string());
    }

    #[test]
    fn handles_survive_other_retractions() {
        let mut wm = WorkingMemory::new();
        let h1 = wm.insert(Transfer { id: 1, streams: 0 });
        let h2 = wm.insert(Transfer { id: 2, streams: 0 });
        wm.retract(h1);
        assert!(wm.contains(h2));
        assert_eq!(wm.get::<Transfer>(h2).unwrap().id, 2);
    }

    #[test]
    fn fact_id_probes_directly_and_dies_with_the_fact() {
        let mut wm = WorkingMemory::new();
        let h = wm.insert(Transfer { id: 9, streams: 1 });
        let id = wm.fact_id::<Transfer>(h).unwrap();
        assert_eq!(wm.get_id(id).unwrap().id, 9);
        // Wrong-type ids are refused at issue time.
        assert!(wm.fact_id::<Cleanup>(h).is_none());
        wm.retract(h);
        assert!(wm.get_id(id).is_none(), "stale id must not resolve");
        assert!(wm.fact_id::<Transfer>(h).is_none());
    }

    #[test]
    fn stale_fact_id_misses_even_after_slot_reuse() {
        let mut wm = WorkingMemory::new();
        let h1 = wm.insert(Transfer { id: 1, streams: 0 });
        let id1 = wm.fact_id::<Transfer>(h1).unwrap();
        wm.retract(h1);
        // The freed slot is recycled by the next insert of the same type.
        let h2 = wm.insert(Transfer { id: 2, streams: 0 });
        let id2 = wm.fact_id::<Transfer>(h2).unwrap();
        assert_eq!(wm.get_id(id2).unwrap().id, 2);
        assert_ne!(id1, id2, "recycled slot must carry a new generation");
        assert!(
            wm.get_id(id1).is_none(),
            "ABA: stale id resolved to a recycled slot"
        );
    }

    #[test]
    fn slot_reuse_preserves_insertion_order_and_handles() {
        let mut wm = WorkingMemory::new();
        let h1 = wm.insert(Transfer { id: 1, streams: 0 });
        let h2 = wm.insert(Transfer { id: 2, streams: 0 });
        wm.retract(h1);
        let h3 = wm.insert(Transfer { id: 3, streams: 0 });
        assert!(h3 > h2, "handles stay monotone across slot reuse");
        let order: Vec<u32> = wm.iter::<Transfer>().map(|(_, t)| t.id).collect();
        assert_eq!(order, vec![2, 3], "reused slot must append at the tail");
    }
}
