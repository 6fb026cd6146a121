#ifndef RUMBA_CORE_BATCH_VIEW_H_
#define RUMBA_CORE_BATCH_VIEW_H_

/**
 * @file
 * Non-owning span views over invocation batches. The hot-path entry
 * point takes a BatchView — `count` elements of `width` doubles laid
 * out contiguously — so a host application (or the serving engine's
 * request buffers) can stream work through the runtime without
 * building a vector<vector<double>> per batch; FlattenBatch packs a
 * vector-of-vectors batch into this form for callers that hold one.
 */

#include <cstddef>
#include <vector>

#include "common/logging.h"

namespace rumba::core {

/** One element's inputs (or outputs): a borrowed [data, data+size). */
class ElementView {
  public:
    ElementView(const double* data, size_t size)
        : data_(data), size_(size)
    {
    }

    /** View over a vector (lifetime stays with the vector). */
    ElementView(const std::vector<double>& values)
        : data_(values.data()), size_(values.size())
    {
    }

    const double* data() const { return data_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    double
    operator[](size_t i) const
    {
        RUMBA_CHECK(i < size_);
        return data_[i];
    }

    const double* begin() const { return data_; }
    const double* end() const { return data_ + size_; }

  private:
    const double* data_;
    size_t size_;
};

/** A borrowed batch: @p count elements of @p width contiguous
 *  doubles (element i starts at data + i * width). */
class BatchView {
  public:
    BatchView(const double* data, size_t count, size_t width)
        : data_(data), count_(count), width_(width)
    {
        RUMBA_CHECK(width > 0);
        RUMBA_CHECK(count == 0 || data != nullptr);
    }

    /** View over a flat vector holding count x width values. */
    BatchView(const std::vector<double>& flat, size_t width)
        : BatchView(flat.data(), width == 0 ? 0 : flat.size() / width,
                    width)
    {
        RUMBA_CHECK(width > 0 && flat.size() % width == 0);
    }

    const double* data() const { return data_; }
    size_t count() const { return count_; }
    size_t width() const { return width_; }
    bool empty() const { return count_ == 0; }

    /** Element @p i's inputs. */
    ElementView
    operator[](size_t i) const
    {
        RUMBA_CHECK(i < count_);
        return ElementView(data_ + i * width_, width_);
    }

  private:
    const double* data_;
    size_t count_;
    size_t width_;
};

/**
 * Pack ragged rows into one contiguous buffer (every row must share
 * the same width; checked). The returned buffer backs a
 * BatchView(flat, rows[0].size()) — the adapter path from the legacy
 * vector-of-vectors API onto the span API.
 */
inline std::vector<double>
FlattenBatch(const std::vector<std::vector<double>>& rows)
{
    RUMBA_CHECK(!rows.empty());
    const size_t width = rows.front().size();
    std::vector<double> flat;
    flat.reserve(rows.size() * width);
    for (const auto& row : rows) {
        RUMBA_CHECK(row.size() == width);
        flat.insert(flat.end(), row.begin(), row.end());
    }
    return flat;
}

}  // namespace rumba::core

#endif  // RUMBA_CORE_BATCH_VIEW_H_
