/**
 * @file
 * Batched remote-free message passing between mutator threads
 * (snmalloc msgpass-style). Every mutator thread owns the chunks it
 * allocated; a free() executed by a *different* thread must not touch
 * the owner's quarantine directly. Instead the freeing thread batches
 * the freed id into a FreeBatch destined for the owner and, when the
 * batch fills (or at a flush boundary: epoch open, thread teardown),
 * pushes it onto the owner's RemoteFreeQueue — a lock-free
 * multi-producer single-consumer queue of batch nodes. The owner
 * drains its queue on its malloc slow path and at epoch boundaries,
 * handing the drained frees to its quarantine.
 *
 * The queue is the intrusive two-pointer MPSC design (a stub node
 * plus an exchange on the back pointer), so a producer enqueues with
 * one atomic exchange and one store regardless of contention, and the
 * consumer dequeues without atomics on the fast path. tryDequeue()
 * may transiently return nullptr while a producer is between its
 * exchange and its link store; enqueuedBatches()/dequeuedBatches()
 * let a quiesced consumer (teardown, epoch barrier) distinguish
 * "empty" from "in flight" exactly.
 *
 * Determinism contract: the *arrival interleaving* across producers
 * is racy, but per producer the batch sequence numbers arrive in
 * order, and every total a drained-queue consumer can observe
 * (entries, batches, per-producer counts) is a deterministic function
 * of what the producers sent.
 */

#ifndef CHERIVOKE_TENANT_REMOTE_QUEUE_HH
#define CHERIVOKE_TENANT_REMOTE_QUEUE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace cherivoke {
namespace tenant {

/** One deferred free in flight between threads. The owner knows
 *  the allocation's size (noteMalloc recorded it), so the message
 *  carries only the id. */
struct RemoteFree
{
    uint64_t id = 0; //!< trace allocation id being freed
};

/** A batch of remote frees from one producer: the message unit. */
struct FreeBatch
{
    FreeBatch(unsigned producer_thread, size_t capacity)
        : producer(producer_thread)
    {
        entries.reserve(capacity);
    }

    unsigned producer = 0; //!< sending thread
    uint64_t seq = 0;      //!< per (producer, queue) sequence number
    std::vector<RemoteFree> entries;
    std::atomic<FreeBatch *> next{nullptr}; //!< queue linkage
};

/**
 * Lock-free MPSC queue of FreeBatch nodes. enqueue() may be called
 * from any thread; tryDequeue() from exactly one consumer thread.
 * The queue owns enqueued batches until they are dequeued (the
 * consumer takes ownership back); batches still queued at
 * destruction are deleted.
 */
class RemoteFreeQueue
{
  public:
    RemoteFreeQueue();
    ~RemoteFreeQueue();

    RemoteFreeQueue(const RemoteFreeQueue &) = delete;
    RemoteFreeQueue &operator=(const RemoteFreeQueue &) = delete;

    /** Publish @p batch (ownership passes to the queue). */
    void enqueue(std::unique_ptr<FreeBatch> batch);

    /**
     * Pop the oldest fully linked batch, or nullptr when the queue
     * is empty *or* a producer is mid-publish. Consumer thread only.
     */
    std::unique_ptr<FreeBatch> tryDequeue();

    /** Batches ever enqueued (any thread; exact once quiesced). */
    uint64_t enqueuedBatches() const
    {
        return enqueued_.load(std::memory_order_acquire);
    }

    /** Batches dequeued so far (consumer thread's own count). */
    uint64_t dequeuedBatches() const { return dequeued_; }

    /**
     * Every published batch has been consumed. Exact only when no
     * producer is mid-enqueue (after a barrier or join); while
     * producers run it is a racy snapshot.
     */
    bool drained() const
    {
        return dequeuedBatches() == enqueuedBatches();
    }

  private:
    void push(FreeBatch *node);

    std::atomic<FreeBatch *> back_;
    FreeBatch *front_; //!< consumer-owned
    FreeBatch stub_;
    std::atomic<uint64_t> enqueued_{0};
    uint64_t dequeued_ = 0;
};

/**
 * Producer-side batching for one (producer thread, destination
 * queue) pair: send() appends to a pending batch and publishes it
 * when it reaches the batch capacity; flush() publishes a partial
 * batch at a boundary (epoch open, teardown). Counts are exact and
 * deterministic in the producer's send/flush sequence.
 */
class RemoteSender
{
  public:
    RemoteSender(unsigned producer, RemoteFreeQueue &dest,
                 size_t batch_capacity);

    /** Batch @p f; publishes the batch when it fills. */
    void send(const RemoteFree &f);

    /** Publish a partial batch (no-op when nothing is pending). */
    void flush();

    /** Entries published to the queue so far (flushed batches). */
    uint64_t sentEntries() const { return sent_entries_; }
    /** Batches published so far. */
    uint64_t sentBatches() const { return sent_batches_; }
    /** Entries sitting in the unpublished pending batch. */
    uint64_t pendingEntries() const
    {
        return pending_ ? pending_->entries.size() : 0;
    }

  private:
    unsigned producer_;
    RemoteFreeQueue *dest_;
    size_t capacity_;
    std::unique_ptr<FreeBatch> pending_;
    uint64_t sent_entries_ = 0;
    uint64_t sent_batches_ = 0;
    uint64_t next_seq_ = 0;
};

} // namespace tenant
} // namespace cherivoke

#endif // CHERIVOKE_TENANT_REMOTE_QUEUE_HH
