/**
 * @file
 * A move-only callable with fixed inline storage. The event kernel and
 * the controller's read completions hold one per pending event or
 * request; unlike std::function, it never allocates: a capture that
 * does not fit the capacity is a compile-time error, not a heap block.
 */

#ifndef LADDER_COMMON_INLINE_FUNCTION_HH
#define LADDER_COMMON_INLINE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ladder
{

template <typename Signature, std::size_t Capacity>
class InlineFunction;

/**
 * Type-erased callable of signature R(Args...) whose target lives in
 * @p Capacity bytes inside the object. Move-only: the target is moved
 * (never copied) with the wrapper, and destroyed exactly once.
 */
template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<Fn, InlineFunction> &&
                  std::is_invocable_r_v<R, Fn &, Args...>>>
    InlineFunction(F &&f)
    {
        static_assert(sizeof(Fn) <= Capacity,
                      "capture too large for this InlineFunction; "
                      "capture a pointer or an index instead");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned capture");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "capture must be nothrow movable");
        ::new (static_cast<void *>(storage_)) Fn(std::forward<F>(f));
        ops_ = &opsFor<Fn>;
    }

    InlineFunction(InlineFunction &&other) noexcept { take(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Call the target. @pre the wrapper holds one. */
    R
    operator()(Args... args) const
    {
        return ops_->invoke(storage_, std::forward<Args>(args)...);
    }

    /** Destroy the target, leaving the wrapper empty. */
    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /** Move-construct into @p dst, then destroy @p src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static constexpr Ops opsFor = {
        [](void *self, Args &&...args) -> R {
            return (*static_cast<Fn *>(self))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) noexcept {
            Fn *from = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
        },
        [](void *self) noexcept { static_cast<Fn *>(self)->~Fn(); },
    };

    void
    take(InlineFunction &other) noexcept
    {
        if (other.ops_) {
            other.ops_->relocate(storage_, other.storage_);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) mutable unsigned char storage_[Capacity];
    const Ops *ops_ = nullptr;
};

} // namespace ladder

#endif // LADDER_COMMON_INLINE_FUNCTION_HH
